"""Sharded, skew-aware stream-serving layer over the pipeline simulator.

The paper keeps one FPGA pipeline's throughput flat under skew by
profiling the workload and attaching secondary PEs to hot primary PEs.
This package lifts the same idea one level up, to a *fleet* of pipeline
workers serving many clients:

``jobs`` / ``queue``
    Job and tenant model (:class:`~repro.service.jobs.TenantSpec`:
    weight, queue-delay SLO, in-flight cap, admission quota) and the
    weighted-fair admission queue: per-tenant sub-queues ordered by
    priority/deadline/FIFO, scheduled across tenants by virtual-time
    WFQ with age promotion as the starvation backstop.
``windows``
    Event-time window manager turning each job's stream into closable
    segments.
``balancer``
    Cluster-level skew balancing: key-range sharding under the
    controller's greedy SecPE plan (:mod:`repro.core.profiler`'s)
    attaching secondary workers to hot ranges; none is the round-robin
    baseline.
``executor``
    The hexagonal execution-backend port (:class:`ExecutionBackend`)
    behind which the fleet runs, plus the picklable
    :class:`SessionSpec` job recipe it trades in.
``pool``
    The ``"inline"`` adapter: K pipeline workers with per-(worker, job)
    streaming sessions, every shard run on the dispatcher thread — no
    worker threads (deterministic default, trace order included).
``procpool``
    The ``"process"`` adapter: the K workers hosted on at most
    cores − 1 warm children, each fed one shared-memory slab
    block per window — the multi-core raw-speed path, bit-identical to
    inline.
``dispatcher``
    The serving loop between ``queue`` and the backend as one unit,
    :class:`~repro.service.dispatcher.Dispatcher`, stepped on the
    calling thread; it makes one control call per closed window.
``server``
    The :class:`~repro.service.server.StreamService` façade: submit /
    poll / result / run, the job registry and the tenant table.
``metrics``
    Deterministic fleet accounting (simulated-cycle makespan).

Every plan is the call of the fleet's controller (:mod:`repro.control`):
reflexive by default, or ``StreamService(adaptive=True, slo=...)``'s
drift detection, cost-aware replanning and autoscaling.
"""

from repro.service.balancer import (
    SkewAwareBalancer,
    make_balancer,
    shard_of_keys,
)
from repro.service.jobs import (
    DEFAULT_TENANT,
    SERVED_APPS,
    Job,
    JobResult,
    JobStatus,
    QuotaExceededError,
    TenantSpec,
    kernel_for,
)
from repro.service.metrics import ServiceMetrics
from repro.service.executor import (
    BACKENDS,
    ExecutionBackend,
    SessionSpec,
    make_backend,
    validate_backend,
)
from repro.service.dispatcher import Dispatcher, Step
from repro.service.pool import WorkItem, WorkerPool
from repro.service.procpool import ProcessBackend
from repro.service.shm import ShardDescriptor, SlabArena, SlabClient
from repro.service.queue import JobQueue
from repro.service.server import StreamService
from repro.service.windows import EventWindow, WindowManager

__all__ = [
    "BACKENDS",
    "DEFAULT_TENANT",
    "SERVED_APPS",
    "Dispatcher",
    "EventWindow",
    "ExecutionBackend",
    "Job",
    "JobQueue",
    "JobResult",
    "JobStatus",
    "ProcessBackend",
    "QuotaExceededError",
    "ServiceMetrics",
    "SessionSpec",
    "ShardDescriptor",
    "SkewAwareBalancer",
    "SlabArena",
    "SlabClient",
    "Step",
    "StreamService",
    "TenantSpec",
    "WindowManager",
    "WorkItem",
    "WorkerPool",
    "kernel_for",
    "make_backend",
    "make_balancer",
    "shard_of_keys",
    "validate_backend",
]
