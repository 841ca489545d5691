"""The stream-serving façade: submit / poll / result over a worker fleet.

:class:`StreamService` is what a client holds.  It builds the parts —
queue, balancer, execution backend, metrics, tracer, the fleet's
controller — wires them into one
:class:`~repro.service.dispatcher.Dispatcher`, and keeps what is not
the serving loop: the client verbs, the job registry with its bounded
retention, and the tenant table.  :meth:`StreamService.run` is the
loop around that dispatcher's ``step()``; how jobs are admitted per
tenant, interleaved by weight and fanned out over the fleet is that
module's contract.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Optional,
    Union,
)

from repro.control.controller import AdaptiveController, ControlPolicy
from repro.core.config import ArchitectureConfig
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector
from repro.service.balancer import SkewAwareBalancer, make_balancer
from repro.service.dispatcher import Dispatcher, Step
from repro.service.jobs import (
    DEFAULT_TENANT,
    DEFAULT_TENANT_SPEC,
    Job,
    JobResult,
    JobStatus,
    QuotaExceededError,
    TenantSpec,
    kernel_for,
)
from repro.service.executor import (
    SessionSpec,
    make_backend,
    validate_backend,
)
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.workloads.streams import TimestampedBatch

#: How long the dispatcher naps when every in-flight source is a
#: network stream still waiting on its client (nothing to step).
SOURCE_WAIT = 0.001


def _spec_factory(
    jobs: Dict[str, Job],
    jobs_lock,
    config: ArchitectureConfig,
) -> Callable[[str], SessionSpec]:
    """``job_id -> SessionSpec``: the backend's per-job session recipes.

    The backend port never sees the live :class:`Job` (it holds the
    source iterator); only the picklable spec crosses it — and, for the
    process backend, the process boundary.  The factory is bound to the
    job registry and the service's configuration, not to the service: a
    backend holding a bound method of its own service closes a
    reference cycle, and a dropped service's jobs and results would then
    live until the cyclic collector's next full pass.
    """

    def spec_for(job_id: str) -> SessionSpec:
        with jobs_lock:
            job = jobs[job_id]
        return SessionSpec(app=job.app, config=config, params=job.params)

    return spec_for


class StreamService:
    """In-process multi-tenant stream-serving system.

    Parameters
    ----------
    workers:
        Pipeline fleet size K.
    balancer:
        ``"skew"`` (default), ``"roundrobin"`` (no secondary workers),
        or a ready-made
        :class:`~repro.service.balancer.SkewAwareBalancer`.
    config:
        Per-worker pipeline shape; defaults to the paper's 16-PriPE
        design without on-chip SecPEs (fleet-level balancing supplies
        the skew handling).
    backend:
        Execution backend behind the fleet port
        (:mod:`repro.service.executor`): ``"inline"`` (default) runs
        every window on the dispatcher thread as one fast-engine pass —
        no worker threads; results and trace order are deterministic
        and replay safe;
        ``"process"`` hosts the K workers on at most cores − 1 warm
        child processes, one per spare CPU, fed whole windows with
        their routes, several per shared-memory block, which the
        children split — they escape the GIL for multi-core wall
        time.  Results are bit-identical across backends.
    transport:
        Only ``"shm"`` is accepted: the process backend always moves
        shards through its shared-memory slab arena
        (:mod:`repro.service.shm`).  The keyword survives for callers
        that still pass it and goes with ROADMAP item 9(a).
    adaptive:
        Pick the policy of the fleet's
        :class:`~repro.control.controller.AdaptiveController`
        (``service.controller``, consulted once per closed window).
        False (default) selects the reflexive preset,
        ``ControlPolicy(reflexive=True)``: every window adopts the
        greedy plan of its own sample.  True selects the adaptive
        :mod:`repro.control` loop, which decides per window whether
        drift justifies a replan of the merged histogram and — given an
        SLO — whether to resize the fleet; it requires secondary
        workers to attach (any fleet but ``"roundrobin"`` with K > 1).
        The tunables are the controller's
        :class:`~repro.control.controller.ControlPolicy`
        (``service.controller.policy``), defaulted and validated there.
    slo:
        Cycles-per-tuple service objective enabling elastic autoscaling
        (only meaningful with ``adaptive=True``).  None keeps the fleet
        size fixed.
    reschedule_cost_cycles:
        Fleet-wide stall (simulated cycles) charged to the makespan each
        time the active plan *changes* — the serving-level analogue of
        the paper's detection + drain + re-enqueue + re-profiling cost.
        Resolved once into the controller's ``cost``: an explicit value
        (including 0) is honored as given; the default None derives the
        cost from the architecture configuration for adaptive services
        (:meth:`~repro.core.config.ArchitectureConfig.reschedule_cost_cycles`)
        and keeps rescheduling free (the historical accounting) for
        non-adaptive ones.
    retained_jobs:
        Bounded retention of *terminal* (completed / failed / cancelled)
        jobs: once more than this many are held, the oldest are dropped
        — their results become unavailable to ``poll``/``result``.  The
        default None keeps every job forever (the historical in-process
        behaviour); long-lived front-ends (the network gateway) must
        set a bound or call :meth:`purge`, or ``_jobs`` grows without
        limit.  Queued and running jobs are never evicted.
    tracer:
        Optional :class:`~repro.obs.collector.TraceCollector` capturing
        structured trace events from every layer (job lifecycle spans,
        control decisions, backend lifecycle, gateway wire events).
        The default is a *disabled* collector — tracing is opt-in and
        near-free when off (hot paths guard on one attribute read).
        The service binds the collector's deterministic clock to its
        dispatch clock.
    """

    #: The sessions' engine and cycle budget, read by ``bench/replay.py``
    #: until ROADMAP item 2.
    engine = SessionSpec.engine
    max_cycles_per_segment = SessionSpec.max_cycles_per_segment

    def __init__(
        self,
        workers: int = 4,
        balancer: Union[str, SkewAwareBalancer] = "skew",
        config: Optional[ArchitectureConfig] = None,
        backend: str = "inline",
        transport: str = "shm",
        adaptive: bool = False,
        slo: Optional[float] = None,
        reschedule_cost_cycles: Optional[int] = None,
        retained_jobs: Optional[int] = None,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        self.config = config or ArchitectureConfig(
            lanes=8, pripes=16, secpes=0, reschedule_threshold=0.0)
        self.backend = validate_backend(backend)
        if transport != "shm":
            raise ValueError(
                f"unknown transport {transport!r} (shm is the only one)")
        if isinstance(balancer, str):
            balancer = make_balancer(balancer, workers)
        if balancer.workers != workers:
            raise ValueError("balancer sized for a different fleet")
        self.balancer = balancer
        self.metrics = ServiceMetrics()
        self.tracer = tracer if tracer is not None else TraceCollector(
            enabled=False)
        self.tracer.bind_clock(self.metrics.dispatch_clock)
        if reschedule_cost_cycles is None:
            cost = self.config.reschedule_cost_cycles() if adaptive else 0
        elif reschedule_cost_cycles < 0:
            raise ValueError("reschedule_cost_cycles must be non-negative")
        else:
            cost = reschedule_cost_cycles
        self._queue = JobQueue()
        self._tenants: Dict[str, TenantSpec] = {
            DEFAULT_TENANT: DEFAULT_TENANT_SPEC,
        }
        if retained_jobs is not None and retained_jobs < 1:
            raise ValueError("retained_jobs must be at least 1 (or None)")
        self.retained_jobs = retained_jobs
        # The job registry is shared with ingest threads (the network
        # gateway submits/polls from connection threads while the
        # dispatcher runs), so every access goes through _jobs_lock.
        self._jobs: Dict[str, Job] = {}  # guarded-by: _jobs_lock
        self._jobs_lock = threading.RLock()
        self._terminal: "OrderedDict[str, None]" = OrderedDict()  # guarded-by: _jobs_lock
        self._pool = make_backend(
            self.backend, workers,
            _spec_factory(self._jobs, self._jobs_lock, self.config),
            self.metrics, tracer=self.tracer)
        if adaptive and self.balancer.secondaries == 0 and workers > 1:
            raise ValueError(
                "adaptive control requires the skew-aware balancer")
        if slo is not None and not adaptive:
            raise ValueError("slo requires adaptive=True")
        #: The fleet's controller; ``adaptive`` picked its policy.
        self.controller = AdaptiveController(
            self.balancer, self._pool, self.metrics,
            policy=ControlPolicy(reflexive=not adaptive), cost=cost,
            slo=slo, tracer=self.tracer)
        # Wired to the parts, never to the service: a bound method of
        # the service held below it would close the reference cycle
        # _spec_factory avoids.
        self.dispatcher = Dispatcher(
            self._queue, self.balancer, self._pool, self.metrics,
            self.controller, tracer=self.tracer, tenants=self._tenants)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def register_tenant(self, spec: TenantSpec) -> None:
        """Install (or update) a tenant's scheduling contract.

        Unregistered tenant IDs are accepted at submit time with the
        default contract (weight 1, no SLO, one job in flight);
        registration is how a tenant gets a weight, an admission quota,
        an in-flight cap or a queue-delay SLO.
        """
        self._tenants[spec.tenant_id] = spec
        self._queue.register_tenant(spec)
        self.metrics.register_tenant(
            spec.tenant_id, weight=spec.weight,
            slo_delay_tuples=spec.slo_delay_tuples)

    def submit(
        self,
        app: str,
        source: Iterable[TimestampedBatch],
        *,
        priority: int = 0,
        deadline: Optional[float] = None,
        window_seconds: float = 4e-6,
        params: Optional[Dict[str, Any]] = None,
        job_id: Optional[str] = None,
        tenant_id: Optional[str] = None,
    ) -> str:
        """Admit a stream job; returns its job ID.

        Thread-safe: ingest threads (the network gateway's connection
        handlers) may submit while the dispatcher serves.  Raises
        :class:`~repro.service.jobs.QuotaExceededError` when the
        tenant's ``max_queued`` admission quota is full, and
        ``ValueError`` for a job id that is still pending or running
        (a *terminal* id may be reused — the resubmit contract).
        """
        tenant_id = tenant_id or DEFAULT_TENANT
        job = Job(
            app=app,
            source=source,
            priority=priority,
            deadline=deadline,
            window_seconds=window_seconds,
            params=dict(params or {}),
            tenant_id=tenant_id,
            job_id=job_id or "",
        )
        # Validate application parameters at admission, not deep inside a
        # worker: a bad job must fail fast for the client.
        kernel_for(job.app, self.config.pripes, job.params)
        job.submit_clock = self.metrics.dispatch_clock()
        with self._jobs_lock:
            existing = self._jobs.get(job.job_id)
            if existing is not None and existing.status in (
                    JobStatus.PENDING, JobStatus.RUNNING):
                raise ValueError(
                    f"duplicate job id {job.job_id!r} "
                    f"(still {existing.status.value})")
            self._jobs[job.job_id] = job
            self._terminal.pop(job.job_id, None)
        try:
            # The queue enforces the tenant's max_queued quota under its
            # own lock (atomic against concurrent ingest threads).
            self._queue.submit(job)
        except QuotaExceededError:
            with self._jobs_lock:
                self._jobs.pop(job.job_id, None)
            self.metrics.record_job("rejected", tenant_id)
            raise
        self.metrics.record_job("submitted", tenant_id)
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_SUBMIT, job.submit_clock,
                job_id=job.job_id, tenant_id=tenant_id,
                app=job.app, priority=job.priority)
        return job.job_id

    def cancel(self, job_id: str) -> bool:
        """Withdraw a still-queued job."""
        cancelled = self._queue.cancel(job_id)
        if cancelled:
            job = self._job(job_id)
            self.metrics.record_job("cancelled", job.tenant_id)
            if self.tracer.enabled:
                self.tracer.emit(trace_events.JOB_CANCEL,
                                 job_id=job.job_id,
                                 tenant_id=job.tenant_id)
            job.finish_clock = self.metrics.dispatch_clock()
            self._retire(job)
        return cancelled

    def poll(self, job_id: str) -> Dict[str, Any]:
        """Status snapshot of one job."""
        job = self._job(job_id)
        return {
            "job_id": job.job_id,
            "app": job.app,
            "tenant": job.tenant_id,
            "status": job.status.value,
            "priority": job.priority,
            "deadline": job.deadline,
            "windows_dispatched": job.windows_dispatched,
            "segments_done": job.segments,
            "late_tuples": job.late_tuples,
            "queue_delay": job.queue_delay,
            "error": job.error,
        }

    def result(self, job_id: str) -> JobResult:
        """Completed-job result; raises if the job is not COMPLETED."""
        job = self._job(job_id)
        if job.status is not JobStatus.COMPLETED:
            raise RuntimeError(
                f"job {job_id} is {job.status.value}, not completed"
                + (f": {job.error}" if job.error else ""))
        return JobResult(
            job_id=job.job_id,
            app=job.app,
            result=job.result,
            tuples=job.tuples,
            cycles=job.cycles,
            segments=job.segments,
            late_tuples=job.late_tuples,
            tenant_id=job.tenant_id,
            queue_delay=job.queue_delay,
        )

    def run(self, max_jobs: Optional[int] = None) -> int:
        """Serve queued jobs until the queue empties; returns jobs run.

        Starts the backend, then loops :meth:`step` until one finds
        nothing in flight.  ``max_jobs`` caps how many jobs are
        *admitted* (the historical ``served`` semantics).
        """
        self.dispatcher.start()
        admitted = finished = 0
        while True:
            step = self.step(
                None if max_jobs is None else max_jobs - admitted)
            if step.idle:
                return finished
            admitted += step.admitted
            finished += len(step.finished)
            if step.pulled == 0 and step.waiting > 0:
                # Every steppable source this round was a network
                # stream with nothing buffered yet: yield briefly so
                # the wait on the clients is not a hot spin.  (A round
                # with zero steps from fractional tenant weight banks
                # credit instead and must not sleep.)
                time.sleep(SOURCE_WAIT)

    def step(self, admit: Optional[int] = None) -> Step:
        """One dispatcher step, the jobs it finished filed in the
        registry; needs ``dispatcher.start()`` first (:meth:`run` does
        both) and, like ``run``, one calling thread."""
        step = self.dispatcher.step(admit)
        for job in step.finished:
            self._retire(job)
        return step

    def shutdown(self) -> None:
        """Stop the worker fleet (drains outstanding work first)."""
        self._pool.stop()

    # ------------------------------------------------------------------
    # Job registry and retention
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _retire(self, job: Job) -> None:
        """Register a terminal job and enforce the retention bound."""
        with self._jobs_lock:
            self._terminal[job.job_id] = None
            self._terminal.move_to_end(job.job_id)
            if self.retained_jobs is not None:
                while len(self._terminal) > self.retained_jobs:
                    stale, _ = self._terminal.popitem(last=False)
                    self._jobs.pop(stale, None)

    def purge(self, older_than: Optional[int] = None,
              keep: int = 0) -> int:
        """Explicitly drop terminal jobs; returns how many were dropped.

        ``older_than`` is a TTL in dispatch-clock tuples (the service's
        deterministic clock): only jobs that finished at least that many
        dispatched tuples ago are dropped.  ``keep`` always preserves
        the newest ``keep`` terminal jobs.  Queued and running jobs are
        never touched.
        """
        if older_than is not None and older_than < 0:
            raise ValueError("older_than must be non-negative")
        if keep < 0:
            raise ValueError("keep must be non-negative")
        now = self.metrics.dispatch_clock()
        purged = 0
        with self._jobs_lock:
            terminal_ids = list(self._terminal)
            protected = set(
                terminal_ids[max(0, len(terminal_ids) - keep):]
                if keep else ())
            for job_id in terminal_ids:
                if job_id in protected:
                    continue
                job = self._jobs.get(job_id)
                if older_than is not None and job is not None \
                        and now - job.finish_clock < older_than:
                    continue
                del self._terminal[job_id]
                self._jobs.pop(job_id, None)
                purged += 1
        return purged
