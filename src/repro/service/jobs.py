"""Job model for the stream-serving layer.

A *job* is one client's request to run one application over one tuple
stream: "compute a running histogram over this feed, windowed every
4 microseconds, priority 5, results needed by t=2ms".  Jobs are the unit
of admission (the :class:`~repro.service.queue.JobQueue` orders them),
of isolation (each job gets its own event-time window manager and its
own per-worker :class:`~repro.runtime.session.StreamingSession`s), and
of accounting (the :class:`JobResult` carries the merged application
result plus the fleet-side throughput record).

The job/submission shape follows the executor architectures in the
related work (ModelOps job submission, OpenDT's worker service) scaled
down to an in-process service.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, Optional

import numpy as np

from repro.core.kernel import KernelSpec
from repro.workloads.streams import TimestampedBatch

#: Applications a job may request, in the paper's Table I naming.
SERVED_APPS = ("histo", "dp", "hll", "hhd", "pagerank")

#: Tenant every job belongs to unless the client says otherwise.  The
#: default tenant has weight 1.0, no SLO and a one-job in-flight cap, so
#: a single-tenant service behaves exactly like the pre-tenant code:
#: one job at a time, strict priority / EDF / FIFO order.
DEFAULT_TENANT = "default"

_job_counter = itertools.count()


class QuotaExceededError(RuntimeError):
    """A tenant tried to queue more jobs than its admission quota."""


@dataclass(frozen=True)
class TenantSpec:
    """Per-tenant scheduling contract.

    Attributes
    ----------
    tenant_id:
        Client-visible tenant name.
    weight:
        Fair-share weight.  The queue's weighted-fair scheduler grants a
        backlogged tenant ``weight / sum(weights of backlogged tenants)``
        of the job admissions, and the dispatcher grants the same share
        of source-stepping rounds to the tenant's in-flight jobs.
    slo_delay_tuples:
        Queue-delay service objective: a job should start within this
        many *dispatched tuples* (the deterministic dispatch clock) of
        its submission.  None disables per-tenant SLO tracking.
    max_in_flight:
        How many of the tenant's jobs the dispatcher may run
        concurrently.  1 (the default) serialises the tenant's jobs,
        matching the historical one-job-at-a-time dispatcher.
    max_queued:
        Admission quota: submissions beyond this many PENDING jobs are
        rejected with :class:`QuotaExceededError`.  None admits
        unboundedly.
    """

    tenant_id: str
    weight: float = 1.0
    slo_delay_tuples: Optional[int] = None
    max_in_flight: int = 1
    max_queued: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not self.weight > 0:
            raise ValueError("weight must be positive")
        if self.slo_delay_tuples is not None and self.slo_delay_tuples < 0:
            raise ValueError("slo_delay_tuples must be non-negative")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if self.max_queued is not None and self.max_queued < 1:
            raise ValueError("max_queued must be at least 1")


#: The implicit spec of unregistered tenants (and of ``DEFAULT_TENANT``).
DEFAULT_TENANT_SPEC = TenantSpec(DEFAULT_TENANT)


def kernel_class_for(app: str) -> type:
    """The :class:`KernelSpec` subclass serving ``app``, uninstantiated.

    For contract lookups (e.g. the class-level ``splittable`` flag)
    that must not pay kernel construction costs.
    """
    if app == "histo":
        from repro.apps.histo import HistogramKernel
        return HistogramKernel
    if app == "dp":
        from repro.apps.partition import PartitionKernel
        return PartitionKernel
    if app == "hll":
        from repro.apps.hyperloglog import HyperLogLogKernel
        return HyperLogLogKernel
    if app == "hhd":
        from repro.apps.heavy_hitter import HeavyHitterKernel
        return HeavyHitterKernel
    if app == "pagerank":
        from repro.apps.pagerank import PageRankKernel
        return PageRankKernel
    raise ValueError(
        f"unknown application {app!r}; served apps: {SERVED_APPS}")


def kernel_for(app: str, pripes: int,
               params: Optional[Dict[str, Any]] = None) -> KernelSpec:
    """Build a fresh kernel instance for one job on one worker.

    Every (worker, job) pair gets its *own* kernel object: a session's
    kernel state is that worker's partial result, merged on collection,
    never shared.  ``params`` carries the per-application knobs a
    client may tune at submission time.
    """
    params = dict(params or {})
    kernel_class = kernel_class_for(app)
    if app == "histo":
        return kernel_class(bins=params.get("bins", 1024), pripes=pripes)
    if app == "dp":
        return kernel_class(
            radix_bits_count=params.get("radix_bits", 6), pripes=pripes)
    if app == "hll":
        return kernel_class(precision=params.get("precision", 12),
                            pripes=pripes)
    if app == "hhd":
        return kernel_class(
            threshold=params.get("threshold", 256),
            track_fraction=params.get("track_fraction", 0.25),
            pripes=pripes,
        )
    from repro.apps.pagerank import to_fixed

    if "num_vertices" not in params:
        raise ValueError("pagerank jobs require params['num_vertices']")
    vertices = int(params["num_vertices"])
    kernel = kernel_class(vertices, pripes=pripes)
    contributions = params.get("contributions")
    if contributions is None:
        # One scatter pass from uniform ranks (a PR iteration's
        # gather half); iterative drivers install real contributions.
        contributions = np.full(
            vertices, to_fixed(1.0 / vertices), dtype=np.int64)
    kernel.set_contributions(np.asarray(contributions, dtype=np.int64))
    return kernel


class JobStatus(str, Enum):
    """Lifecycle of a job inside the service."""

    PENDING = "pending"        # accepted, waiting in the queue
    RUNNING = "running"        # windows being dispatched / processed
    COMPLETED = "completed"    # result available
    FAILED = "failed"          # a worker raised; see Job.error
    CANCELLED = "cancelled"    # withdrawn before it ran


@dataclass
class Job:
    """One submitted stream-processing request.

    Attributes
    ----------
    job_id:
        Service-assigned identifier (``job-<n>`` unless the client names
        it).
    app:
        Application short name (one of :data:`SERVED_APPS`).
    source:
        Iterable of :class:`TimestampedBatch` — the job's tuple stream.
    priority:
        Larger runs earlier *within the job's tenant* (ties broken by
        deadline then FIFO); across tenants the queue schedules by
        weighted fair share, so one tenant's priorities never starve
        another tenant.
    deadline:
        Event-time seconds by which the client wants results; used as the
        earliest-deadline-first tiebreak within a priority level.
    window_seconds:
        Event-time width of this job's aggregation windows.
    params:
        Application knobs forwarded to :func:`kernel_for`.
    tenant_id:
        Owning tenant (:data:`DEFAULT_TENANT` unless the client says
        otherwise).
    """

    app: str
    source: Iterable[TimestampedBatch]
    priority: int = 0
    deadline: Optional[float] = None
    window_seconds: float = 4e-6
    params: Dict[str, Any] = field(default_factory=dict)
    tenant_id: str = DEFAULT_TENANT
    job_id: str = ""
    status: JobStatus = JobStatus.PENDING
    error: Optional[str] = None
    seq: int = field(default_factory=lambda: next(_job_counter))
    result: Any = None
    #: Totals of the merged session, filled in when the job completes.
    tuples: int = 0
    cycles: int = 0
    segments: int = 0
    windows_dispatched: int = 0
    late_tuples: int = 0
    #: Dispatch-clock reading (cumulative dispatched tuples) at submit
    #: and the clock delta when the dispatcher started the job — the
    #: deterministic queue-delay measurement behind the per-tenant SLO.
    submit_clock: int = 0
    queue_delay: int = 0
    #: Dispatch-clock reading when the job reached a terminal state;
    #: the retention policy's TTL (:meth:`StreamService.purge`) ages
    #: terminal jobs against this.
    finish_clock: int = 0

    def __post_init__(self) -> None:
        if self.app not in SERVED_APPS:
            raise ValueError(
                f"unknown application {self.app!r}; "
                f"served apps: {SERVED_APPS}")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be non-negative")
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not self.job_id:
            self.job_id = f"job-{self.seq}"

    def sort_key(self) -> tuple:
        """Within-tenant ordering: priority desc, deadline asc, FIFO."""
        deadline = math.inf if self.deadline is None else self.deadline
        return (-self.priority, deadline, self.seq)


@dataclass(frozen=True)
class JobResult:
    """What a client gets back for a completed job."""

    job_id: str
    app: str
    result: Any
    tuples: int
    cycles: int
    segments: int
    late_tuples: int
    tenant_id: str = DEFAULT_TENANT
    queue_delay: int = 0

    @property
    def tuples_per_cycle(self) -> float:
        """Job-wide sustained throughput (per participating pipeline)."""
        return self.tuples / self.cycles if self.cycles else 0.0
