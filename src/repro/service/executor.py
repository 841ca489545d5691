"""The execution-backend port: how the service drives a worker fleet.

The serving layer is hexagonal at the execution boundary: everything
above the fleet — the dispatcher, the balancer, the adaptive controller,
the autoscaler — talks to an abstract :class:`ExecutionBackend` (this
module), and the concrete mechanics of *where* a worker runs live in
adapters:

``repro.service.pool.WorkerPool`` (``backend="inline"``)
    K workers that are ids and sessions, not threads: every window runs
    on the dispatcher thread inside ``dispatch_window``, as one
    fast-engine pass.  Deterministic in results *and* trace order,
    replay safe, zero serialization; the fleet's parallelism is
    simulated-cycle accounting only.

``repro.service.procpool.ProcessBackend`` (``backend="process"``)
    The same K logical workers hosted on at most cores − 1 warm child
    processes, one per spare CPU (worker ``w`` in child
    ``w % spare``), that stay up across jobs.  A child gets whole
    windows with their routes, several per block: they are written
    once into a shared-memory slab arena (:mod:`repro.service.shm`),
    one descriptor crosses its pipe, and the child splits each window
    and runs its own workers' shards; per-(worker, job) sessions live
    in the child, and partial results come back as compact
    :class:`~repro.runtime.session.SessionSnapshot`s on collection.
    This is the multi-core raw-speed path (the ModelOps warm-pool shape:
    processes are forked once and reused, never cold-started per job).

Both adapters make the same guarantee: given the same dispatch sequence
they produce bit-identical merged results, identical deterministic
metrics and the same ``job.window`` / ``job.segment`` events, because
all routing *decisions* (plan, profile, control) happen above the port —
a route only applies them, in whichever process splits the window — and
partial merges happen in a fixed (worker, generation) order.

:class:`SessionSpec` is the port's job-description currency: a small,
picklable recipe from which any adapter — in any process — can build the
per-(worker, job) :class:`~repro.runtime.session.StreamingSession`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import ArchitectureConfig
from repro.runtime.session import StreamingSession

#: The registered execution backends, in preference-for-replay order.
BACKENDS = ("inline", "process")


def validate_backend(backend: str) -> str:
    """Normalize and validate a backend name (mirrors validate_engine)."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (inline | process)")
    return backend


@dataclass(frozen=True)
class SessionSpec:
    """Picklable recipe for one job's per-worker streaming session.

    Everything a worker — inline or subprocess — needs to build a fresh
    :class:`StreamingSession` with its own kernel instance: the app
    name and params (the kernel factory's inputs) and the architecture
    configuration.  Live objects (the Job, its source iterator, the
    service) never cross the port.  ``engine`` and
    ``max_cycles_per_segment`` keep their defaults in the service;
    ``bench/replay.py`` passes both (ROADMAP item 2 retires them).
    """

    app: str
    config: ArchitectureConfig
    max_cycles_per_segment: int = 20_000_000
    engine: str = "fast"
    params: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> StreamingSession:
        """Construct the session (imports deferred: children call this)."""
        from repro.service.jobs import kernel_for

        return StreamingSession(
            config=self.config,
            kernel=kernel_for(self.app, self.config.pripes, self.params),
            max_cycles_per_segment=self.max_cycles_per_segment,
            engine=self.engine,
        )


class ExecutionBackend(ABC):
    """Port through which the service drives K pipeline workers.

    Lifecycle contract (all calls from the dispatcher thread):

    1. :meth:`start` brings the fleet up warm; workers persist across
       jobs.  After :meth:`stop` — even a failed one — the backend must
       be restartable with a fresh :meth:`start`.
    2. :meth:`dispatch_window` hands over one closed window with the
       balancer's :class:`~repro.service.balancer.WindowRoute` for it;
       the adapter splits it by that route, in whichever process it
       chooses, and traces the ``job.window`` naming the shards (the
       inline pool runs every window as one fast-engine pass, one
       kernel call returning every shard's result, instead of
       gathering the shards).
       :meth:`dispatch` hands one shard to one worker: a window routed
       wholly to it.  Shards for the same worker process in FIFO order.
       An adapter may run them before returning (the inline one does)
       or queue them.
    3. :meth:`drain` barriers until every dispatched shard has been
       processed *and its segment metrics and errors are visible* to
       the parent (:class:`~repro.service.metrics.ServiceMetrics` and
       :meth:`errors`).
    4. :meth:`collect` (only after :meth:`drain`) merges a finished
       job's per-worker partial sessions — including partials retained
       from workers removed by a :meth:`resize` — in ascending
       (worker_id, generation) order, and releases them.
    5. :meth:`resize` grows the fleet with fresh warm workers or shrinks
       it after draining the removed workers, retaining their partial
       sessions for :meth:`collect`.  Callers stop routing to removed
       worker IDs first (the balancer's ``reconfigure`` does this).

    ``size`` is the current fleet size K; worker IDs are 0..size-1.
    """

    size: int

    @abstractmethod
    def start(self) -> None:
        """Bring the worker fleet up (idempotent while running)."""

    @abstractmethod
    def stop(self) -> None:
        """Drain and stop every worker; must leave a restartable pool."""

    @abstractmethod
    def dispatch(self, worker_id: int, item) -> None:
        """Hand one :class:`~repro.service.pool.WorkItem` to one worker."""

    @abstractmethod
    def dispatch_window(self, item, route) -> None:
        """Hand one whole window and its route to the fleet."""

    @abstractmethod
    def drain(self) -> None:
        """Block until every dispatched item is processed and accounted."""

    @abstractmethod
    def resize(self, workers: int) -> None:
        """Grow or shrink the fleet to ``workers`` pipeline instances."""

    @abstractmethod
    def collect(self, job_id: str) -> Optional[StreamingSession]:
        """Merge and release one finished job's partial sessions."""

    @abstractmethod
    def errors(self, job_id: str) -> List[str]:
        """Worker errors recorded for one job (drain first)."""

    @abstractmethod
    def clear_errors(self, job_id: str) -> None:
        """Drop one job's error ledger (job start / collection)."""


def make_backend(
    backend: str,
    workers: int,
    spec_factory: Callable[[str], SessionSpec],
    metrics,
    tracer=None,
) -> ExecutionBackend:
    """Build the named adapter behind the :class:`ExecutionBackend` port.

    ``spec_factory`` maps a job id to its :class:`SessionSpec`; the
    inline adapter builds sessions from it directly, the process adapter
    ships the spec to each hosting child with the job's first block.
    ``tracer`` is the service's shared
    :class:`~repro.obs.collector.TraceCollector` (or None for a disabled
    one) — both adapters emit segment and lifecycle events through it.
    """
    validate_backend(backend)
    if backend == "inline":
        from repro.service.pool import WorkerPool

        return WorkerPool(
            workers,
            lambda job_id: spec_factory(job_id).build(),
            metrics,
            tracer=tracer,
        )
    from repro.service.procpool import ProcessBackend

    return ProcessBackend(workers, spec_factory, metrics, tracer=tracer)
