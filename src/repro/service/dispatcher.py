"""The serving loop as one steppable unit.

A :class:`Dispatcher` is wired from the parts it drives — a
:class:`~repro.service.queue.JobQueue`, a balancer, an
:class:`~repro.service.executor.ExecutionBackend`, a
:class:`~repro.service.metrics.ServiceMetrics`, the fleet's
:class:`~repro.control.controller.AdaptiveController` and, optionally,
a tracer and the tenant table — and owns only the state of the jobs in
flight.  It starts no thread and takes no lock of its own.

One :meth:`Dispatcher.step` is one iteration of the serving loop, four
phases in this order:

1. **sample** the queue depth into the metrics;
2. **admit** jobs in the queue's weighted-fair order, skipping tenants
   at their ``TenantSpec.max_in_flight`` cap, until nothing admissible
   is queued (or ``admit`` jobs were taken);
3. one **weighted round** over the in-flight jobs: tenants in sorted
   order, each earning ``weight`` step credit, each whole credit
   pulling one source batch from one of the tenant's jobs (persistent
   round-robin among them) and pushing each window it closes through
   one ``controller.on_window`` call and then, with the balancer's
   route for it, to the backend; a source that ends is drained, merged
   and made terminal inside its pull;
4. **retire**: tenants whose last job left are dropped from the
   in-flight map and from the controller's merged load.

Step credit and the rotation pointers persist from step to step
(fractional weights bank credit across rounds) and are reset only by
:meth:`Dispatcher.start`, which also starts the backend;
``StreamService.run`` calls it once per serving pass.  Every call must
come from one thread, the one the backend port calls "the dispatcher
thread"; the queue's ``submit`` and ``cancel`` may race with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.control.controller import AdaptiveController
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector
from repro.service.balancer import SkewAwareBalancer
from repro.service.executor import ExecutionBackend
from repro.service.jobs import Job, JobStatus, TenantSpec, kernel_class_for
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkItem
from repro.service.queue import JobQueue
from repro.service.windows import WindowManager
from repro.workloads.streams import TimestampedBatch


@dataclass
class _ActiveJob:
    """Dispatcher-side state of one admitted, still-streaming job."""

    job: Job
    windows: WindowManager
    source: Iterator[TimestampedBatch]
    by_key: bool


class Step(NamedTuple):
    """What one :meth:`Dispatcher.step` did: jobs ``admitted`` from the
    queue, the jobs that ``finished`` (completed or failed, in the order
    they left the fleet), source batches ``pulled``, sources passed over
    as ``waiting`` on their client, and jobs still ``in_flight``."""

    admitted: int
    finished: List[Job]
    pulled: int
    waiting: int
    in_flight: int

    @property
    def idle(self) -> bool:
        """Nothing was in flight once admission ended; no round ran."""
        return not (self.admitted or self.finished or self.in_flight)


class Dispatcher:
    """Serves queued jobs over a worker fleet, one :meth:`step` at a time.

    ``controller`` takes the one control call per closed window,
    whatever its policy (reflexive or adaptive): only it changes the
    balancer's plan, charges the rescheduling stall and counts plan
    changes.  ``tenants`` is the live ``tenant_id -> TenantSpec`` table,
    an unregistered id getting the default contract.
    """

    def __init__(
        self,
        queue: JobQueue,
        balancer: SkewAwareBalancer,
        backend: ExecutionBackend,
        metrics: ServiceMetrics,
        controller: AdaptiveController,
        tracer: Optional[TraceCollector] = None,
        tenants: Optional[Mapping[str, TenantSpec]] = None,
    ) -> None:
        self.queue = queue
        self.balancer = balancer
        self.backend = backend
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else TraceCollector(
            enabled=False)
        self.controller = controller
        self.tenants = tenants if tenants is not None else {}
        #: tenant -> its in-flight jobs in admission order; a tenant
        #: with none has no entry.
        self._in_flight: Dict[str, List[_ActiveJob]] = {}
        self._credit: Dict[str, float] = {}
        self._rotation: Dict[str, int] = {}

    def start(self) -> None:
        """Start the backend and reset step credit and rotation."""
        self.backend.start()
        self._credit.clear()
        self._rotation.clear()

    def tenant_spec(self, tenant_id: str) -> TenantSpec:
        """The registered spec, or the default contract for that ID."""
        return self.tenants.get(tenant_id) or TenantSpec(tenant_id)

    def step(self, admit: Optional[int] = None) -> Step:
        """Sample, admit (at most ``admit`` jobs), round, retire."""
        self.metrics.sample_queue_depth(self.queue.depth())
        admitted = 0
        while admit is None or admitted < admit:
            blocked = {
                tenant for tenant, entries in self._in_flight.items()
                if len(entries) >= self.tenant_spec(tenant).max_in_flight
            }
            job = self.queue.pop(blocked=blocked)
            if job is None:
                break
            entry = self._start_job(job)
            self._in_flight.setdefault(job.tenant_id, []).append(entry)
            admitted += 1
        tenants = sorted(self._in_flight)
        finished, pulled, waiting = self._round(tenants)
        for tenant_id in tenants:
            if not self._in_flight[tenant_id]:
                del self._in_flight[tenant_id]
                # The tenant's last stream left the fleet: its
                # histogram no longer belongs in the merged load the
                # control loop plans against.
                self.controller.forget_tenant(tenant_id)
        return Step(admitted, finished, pulled, waiting,
                    sum(map(len, self._in_flight.values())))

    def _round(self, tenants: List[str]) -> Tuple[List[Job], int, int]:
        """One weighted scheduling round (phase 3): tenants share the
        dispatcher in weight proportion whatever their job counts.
        Returns the jobs that left the fleet, the batches pulled and
        the sources passed over as not ready."""
        finished: List[Job] = []
        pulled = waiting = 0
        for tenant_id in tenants:
            entries = self._in_flight[tenant_id]
            credit = self._credit.get(tenant_id, 0.0) \
                + self.tenant_spec(tenant_id).weight
            steps = int(credit)
            self._credit[tenant_id] = credit - steps
            # The rotation pointer persists across rounds so a tenant
            # whose weight grants one step per round still round-robins
            # its in-flight jobs instead of pinning the first.
            rotation = self._rotation.get(tenant_id, 0)
            skipped = 0
            while steps > 0 and entries and skipped < len(entries):
                # Normalize before indexing: a stale pointer beyond the
                # current list (earlier wrap, earlier removal) must map
                # onto the job the round-robin actually owes a step.
                rotation %= len(entries)
                entry = entries[rotation]
                # Plain iterators never block; the network ingest
                # buffer exposes a non-blocking poll_ready() probe.
                probe = getattr(entry.source, "poll_ready", None)
                if probe is not None and not probe():
                    # A network stream with nothing buffered: pulling
                    # it would block the whole single-threaded
                    # dispatcher in next(), stalling every other
                    # tenant's jobs.  Pass over it and serve whoever
                    # has data; a full rotation of such skips forfeits
                    # the tenant's remaining steps this round (idle
                    # eviction lives in the source's readiness probe).
                    rotation += 1
                    skipped += 1
                    waiting += 1
                    continue
                skipped = 0
                steps -= 1
                pulled += 1
                if self._pull(entry):
                    finished.append(entry.job)
                    # Removing by index slides the successor into this
                    # slot; the pointer stays put so that successor is
                    # served next instead of being skipped (and the
                    # predecessor is not double-stepped).
                    entries.pop(rotation)
                else:
                    rotation += 1
            self._rotation[tenant_id] = \
                rotation % len(entries) if entries else 0
        return finished, pulled, waiting

    def _start_job(self, job: Job) -> _ActiveJob:
        job.status = JobStatus.RUNNING
        admit_clock = self.metrics.dispatch_clock()
        job.queue_delay = admit_clock - job.submit_clock
        self.metrics.record_queue_delay(job.tenant_id, job.queue_delay)
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_ADMIT, admit_clock,
                job_id=job.job_id, tenant_id=job.tenant_id,
                queue_delay=job.queue_delay)
        # A resubmitted job id must not inherit a previous run's errors.
        self.backend.clear_errors(job.job_id)
        # A non-splittable kernel's (heavy hitters') windows each go
        # whole to one worker; a class-level contract, no kernel built.
        by_key = not kernel_class_for(job.app).splittable
        # A freeze is a per-workload verdict, not a service-lifetime
        # one: re-arm the control loop for the new job's stream.
        self.controller.unfreeze()
        return _ActiveJob(
            job=job,
            windows=WindowManager(job.window_seconds),
            source=iter(job.source),
            by_key=by_key,
        )

    def _pull(self, entry: _ActiveJob) -> bool:
        """Pull one source batch for one in-flight job.

        Returns True when the job left the fleet (completed or failed)
        this pull, stamped with the dispatch clock it left at.
        """
        job = entry.job
        try:
            try:
                events = next(entry.source)
            except StopIteration:
                self._dispatch(job, entry.windows.flush(), entry.by_key)
                self._finish_job(entry)
            else:
                self._dispatch(job, entry.windows.observe(events),
                               entry.by_key)
                return False
        except Exception as exc:  # noqa: BLE001 — a bad source fails the job
            self.backend.drain()
            self.backend.collect(job.job_id)  # release partial sessions
            job.late_tuples = entry.windows.late_tuples
            self.metrics.record_late(entry.windows.late_tuples)
            self._fail(job, f"source error: {exc}")
        job.finish_clock = self.metrics.dispatch_clock()
        return True

    def _finish_job(self, entry: _ActiveJob) -> None:
        job = entry.job
        self.backend.drain()
        job.late_tuples = entry.windows.late_tuples
        self.metrics.record_late(entry.windows.late_tuples)
        errors = self.backend.errors(job.job_id)
        if errors:
            self.backend.collect(job.job_id)  # release partial sessions
            self._fail(job, "; ".join(errors))
            return
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_MERGE,
                job_id=job.job_id, tenant_id=job.tenant_id,
                windows=job.windows_dispatched)
        merged = self.backend.collect(job.job_id)
        if merged is not None:
            job.result = merged.result
            job.tuples = merged.total_tuples
            job.cycles = merged.total_cycles
            job.segments = merged.segments
        job.status = JobStatus.COMPLETED
        self.metrics.record_job("completed", job.tenant_id)
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_COMPLETE,
                job_id=job.job_id, tenant_id=job.tenant_id,
                segments=job.segments,
                late_tuples=job.late_tuples)

    def _fail(self, job: Job, message: str) -> None:
        job.status = JobStatus.FAILED
        job.error = message
        self.metrics.record_job("failed", job.tenant_id)
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_FAIL,
                job_id=job.job_id, tenant_id=job.tenant_id,
                error=message)

    def _dispatch(self, job: Job, closed_windows,  # hot-path
                  by_key: bool) -> None:
        tracer = self.tracer
        for window in closed_windows:
            batch = window.to_batch()
            if len(batch) == 0:
                continue
            self.metrics.record_window(len(batch))
            # One clock read per window, on the dispatcher thread — the
            # stamp every shard (and hence every segment event, on any
            # backend) carries.  Zero when tracing is off: the read is
            # a lock acquisition the hot path should not pay for
            # nothing.
            dispatch_clock = (self.metrics.dispatch_clock()
                              if tracer.enabled else 0)
            self.controller.on_window(np.asarray(batch.keys), len(batch),
                                      tenant_id=job.tenant_id)
            self.backend.dispatch_window(
                WorkItem(job_id=job.job_id, batch=batch,
                         tenant_id=job.tenant_id,
                         dispatch_clock=dispatch_clock),
                self.balancer.route(by_key, job.windows_dispatched))
            job.windows_dispatched += 1
