"""Inline execution backend: K pipeline workers on the dispatcher thread.

The ``backend="inline"`` adapter of the
:class:`~repro.service.executor.ExecutionBackend` port.  A worker is an
id, a generation and its per-job
:class:`~repro.runtime.session.StreamingSession`s (one worker
accumulates its shard of every job it touches across windows — session
reuse is what makes per-window dispatch cheap), and
:meth:`WorkerPool.dispatch_window` runs each window as one fast-engine
pass on the calling thread (:meth:`WorkerPool.dispatch`: the same pass
over one worker).  There are no worker threads, queues or locks: under
the GIL they bought no wall-clock parallelism (that is the process adapter's
job, :mod:`repro.service.procpool`) and cost a thread hand-off per
shard.  Fleet parallelism is accounted in deterministic simulated
cycles per worker (:mod:`repro.service.metrics`); results, metrics
*and* the trace event order replay exactly.

Sessions are keyed ``(worker_id, generation, job_id)``: the pool bumps
its generation every time it mints new worker ids (grow), so a worker
id freed by a scale-down and later reissued by a scale-up can never
silently adopt the removed worker's retained partial session.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.fastpath import run_lanes
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector
from repro.runtime.session import StreamingSession
from repro.service.balancer import WindowRoute
from repro.service.executor import ExecutionBackend
from repro.service.jobs import DEFAULT_TENANT
from repro.workloads.tuples import TupleBatch


@dataclass
class WorkItem:
    """One closed window, or one worker's shard of it.

    ``tenant_id`` rides along so the worker can charge the segment's
    tuples and cycles to the owning tenant's metrics.  ``dispatch_clock``
    is the dispatch-clock reading stamped by the dispatcher when the
    shard was routed — segment trace events carry it instead of a read
    at completion time, which is what makes their timestamps identical
    across the inline and process backends (inline records the segment
    inside ``dispatch``, process children ship ledgers back at drain).
    """

    job_id: str
    batch: TupleBatch
    tenant_id: str = DEFAULT_TENANT
    dispatch_clock: int = 0


def error_text(exc: Exception) -> str:
    """The one-line message an error ledger keeps for ``exc``."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class WorkerPool(ExecutionBackend):
    """K pipeline workers with per-(worker, job) streaming sessions.

    Parameters
    ----------
    workers:
        Fleet size K.
    session_factory:
        ``job_id -> StreamingSession`` building a fresh session (with its
        own kernel instance) the first time a worker sees a job.
    metrics:
        Shared :class:`~repro.service.metrics.ServiceMetrics`.
    tracer:
        Optional :class:`~repro.obs.collector.TraceCollector`; a
        disabled collector is installed when omitted so hot paths can
        guard on ``tracer.enabled`` unconditionally.
    """

    def __init__(
        self,
        workers: int,
        session_factory: Callable[[str], StreamingSession],
        metrics,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.size = workers
        self.session_factory = session_factory
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else TraceCollector(
            enabled=False)
        self._generation = 0
        #: The generation each live worker id was minted under.
        self._generations: List[int] = [0] * workers
        self._sessions: Dict[Tuple[int, int, str], StreamingSession] = {}
        self._errors: Dict[str, List[str]] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._trace_minted(range(self.size))

    def stop(self) -> None:
        """Stop accepting shards; :meth:`start` resumes.

        Every dispatched shard already ran inside :meth:`dispatch`, so
        there is nothing to drain or join.
        """
        self._started = False

    def _trace_minted(self, worker_ids: Iterable[int]) -> None:
        if self.tracer.enabled:
            for worker_id in worker_ids:
                self.tracer.emit(
                    trace_events.BACKEND_FORK, worker=worker_id,
                    generation=self._generations[worker_id],
                    worker_kind="inline")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, worker_id: int, item: WorkItem) -> None:  # hot-path
        """Run one shard on one worker, on the calling thread: the
        window pass over a route that takes it wholly to that worker
        (by key, so HHD's keyed pass takes it too).

        A kernel exception fails the shard's job (through the per-job
        error ledger the dispatcher reads after :meth:`drain`), not the
        dispatcher.  ``bench/tracing.py`` wraps this name; ROADMAP item
        2 retires the wrapper.
        """
        if not 0 <= worker_id < self.size:
            raise ValueError(f"no such worker {worker_id}")
        self._run(item, WindowRoute(((worker_id,),), by_key=True), False)

    def dispatch_window(self, item: WorkItem, route) -> None:  # hot-path
        """Route one window, run it as one lane-aware pass, and trace
        the ``job.window`` that names its shards.

        The pass (:func:`~repro.core.fastpath.run_lanes`) is one kernel
        call, then one ``bincount`` of lane and PE that lists the shards
        and their loads: each worker's session folds its own tuples,
        cycles and state — an order-free kernel's whole-window result
        on the first worker, a by-key HHD shard's own hitters or a DP
        shard's own run on each — and the window's segments are
        charged to the metrics in one call.  The shards of a window
        whose pass raised are gathered and :meth:`dispatch`ed one by
        one, so each failing shard reports its own error and the others
        fold, as in the process backend's children.
        """
        self._run(item, route, True)

    def _run(self, item: WorkItem, route, rerun: bool) -> None:  # hot-path
        """The window pass; a raising one fails the job, or with
        ``rerun`` is rerun shard by shard."""
        if not self._started:
            raise RuntimeError("pool is not running; call start() first")
        if len(item.batch) == 0:
            return
        job_id = item.job_id
        lanes = route.lanes(item.batch)
        try:
            # Any of the job's sessions knows its kernel; team 0's head
            # is in every route (an idle session is dropped at collect).
            session = self._session(route.teams[0][0], job_id)
            shards = run_lanes(session.config, session.kernel, item.batch,
                               lanes)
        except Exception as exc:  # noqa: BLE001 — via errors(), or rerun
            if not rerun:
                self._fail(job_id, exc)
                return
            split = lanes.split(item.batch)
            self._trace_window(item, route, (
                (worker_id, len(shard)) for worker_id, shard in split.items()))
            for worker_id, shard in split.items():
                self.dispatch(worker_id, WorkItem(
                    job_id, shard, item.tenant_id, item.dispatch_clock))
            return
        self._trace_window(item, route, ((worker_id, outcome.tuples)
                                         for worker_id, outcome in shards))
        segments = []
        for worker_id, outcome in shards:
            self._session(worker_id, job_id).fold(
                outcome.result, outcome.tuples, outcome.cycles)
            segments.append((worker_id, outcome.tuples, outcome.cycles))
        self._record(item, segments)

    def _trace_window(self, item: WorkItem, route,
                      shards: Iterable[Tuple[int, int]]) -> None:
        """The ``job.window`` naming a job window's ``(worker, tuples)``
        shards."""
        if self.tracer.enabled and route.window_index is not None:
            self.tracer.emit(
                trace_events.JOB_WINDOW, item.dispatch_clock,
                job_id=item.job_id, tenant_id=item.tenant_id,
                tuples=len(item.batch), window_index=route.window_index,
                shards=[[worker_id, tuples] for worker_id, tuples in shards])

    def _session(self, worker_id: int, job_id: str) -> StreamingSession:
        """The worker's session for the job, built on first use."""
        key = (worker_id, self._generations[worker_id], job_id)
        session = self._sessions.get(key)
        if session is None:
            session = self._sessions[key] = self.session_factory(job_id)
        return session

    def _fail(self, job_id: str, exc: Exception) -> None:
        self._errors.setdefault(job_id, []).append(error_text(exc))

    def _record(self, item: WorkItem,
                segments: List[Tuple[int, int, int]]) -> None:
        """Charge a window's ``(worker, tuples, cycles)`` segments to
        the workers and the tenant in one call; trace each."""
        self.metrics.record_segments(segments, tenant=item.tenant_id)
        tracer = self.tracer
        if tracer.enabled:
            for worker_id, tuples, cycles in segments:
                tracer.emit(
                    trace_events.JOB_SEGMENT, item.dispatch_clock,
                    job_id=item.job_id, tenant_id=item.tenant_id,
                    worker=worker_id,
                    generation=self._generations[worker_id],
                    tuples=tuples, cycles=cycles)

    def drain(self) -> None:
        """The port's barrier; inline shards finished inside dispatch."""
        if self.tracer.enabled:
            self.tracer.emit(trace_events.BACKEND_DRAIN,
                             backend="inline", workers=self.size)

    def resize(self, workers: int) -> None:
        """Grow or shrink the fleet to ``workers`` pipeline instances.

        Growing mints the new worker ids under a new pool generation,
        so a worker id that was removed by an earlier shrink cannot
        adopt the removed worker's retained partial session.  Shrinking
        retires the highest-numbered workers; their per-job partial
        sessions stay registered so :meth:`collect` still merges them.
        Callers must stop routing to removed worker IDs first (the
        balancer's ``reconfigure`` does this).
        """
        if workers <= 0:
            raise ValueError("workers must be positive")
        grown = range(self.size, workers)  # empty on a shrink
        if grown:
            self._generation += 1
            self._generations.extend([self._generation] * len(grown))
        else:
            del self._generations[workers:]
        self.size = workers
        if self._started:
            self._trace_minted(grown)

    # ------------------------------------------------------------------
    # Error ledger and collection
    # ------------------------------------------------------------------
    def errors(self, job_id: str) -> List[str]:
        return list(self._errors.get(job_id, []))

    def clear_errors(self, job_id: str) -> None:
        """Drop one job's error ledger.

        Called when a job starts (so a resubmitted client-chosen job id
        does not inherit a previous run's errors and fail instantly) and
        by :meth:`collect` (so the ledger cannot grow without bound).
        """
        self._errors.pop(job_id, None)

    def collect(self, job_id: str) -> Optional[StreamingSession]:
        """Merge the per-worker partial sessions of one finished job.

        Returns None if no worker processed any tuple for the job.  The
        per-worker sessions (and the job's error ledger) are released,
        so collection is one-shot.  Partials merge in ascending
        (worker_id, generation) order — the fixed order both backends
        share, which keeps order-sensitive reductions (partition lists)
        bit-identical across backends.  The workers folded kernel
        states, so the merged state's answer is read here, once.
        """
        self._errors.pop(job_id, None)
        # Iterate the session registry, not range(size): workers
        # removed by a scale-down still hold partials to merge.
        owned = sorted(key for key in self._sessions if key[2] == job_id)
        partials = [self._sessions.pop(key) for key in owned]
        partials = [partial for partial in partials if partial.segments]
        if not partials:
            return None
        merged = self.session_factory(job_id)
        for partial in partials:
            merged.merge_from(partial)
        merged.result = merged.kernel.answer(merged.result)
        return merged
