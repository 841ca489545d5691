"""The stream-serving façade: submit / poll / result over a worker fleet.

:class:`StreamService` glues the subsystem together:

.. code-block:: text

    client ──submit──> JobQueue ──pop──> dispatcher
                                           │ per job
                                           ▼
                                     WindowManager ──closed windows──┐
                                                                     ▼
                        FleetBalancer (profile + greedy plan) ── split
                                                                     │
               ┌───────────────┬───────────────┬─────────────────────┘
               ▼               ▼               ▼
          worker 0        worker 1   ...  worker K-1   (ExecutionBackend)
        StreamingSession per (worker, job); partials merge on completion

The dispatcher serves jobs *per tenant*: the queue's weighted-fair
scheduler picks which tenant's job is admitted next (strict priority /
EDF / FIFO only order jobs *within* a tenant), and up to
``TenantSpec.max_in_flight`` jobs per tenant run concurrently, their
source batches interleaved in proportion to tenant weight.  With a
single tenant (``max_in_flight=1``) that *is* one job at a time in
strict queue order; every job's windows are sharded across the whole
fleet either way, so the fleet-throughput accounting stays crisp while
tenants get weighted fair shares, admission quotas, and queue-delay SLO
tracking.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

import numpy as np

from repro.control.controller import AdaptiveController, ControlPolicy
from repro.control.replanner import default_reschedule_cost_cycles
from repro.core.config import ArchitectureConfig
from repro.core.fastpath import validate_engine
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector
from repro.service.balancer import (
    FleetBalancer,
    SkewAwareBalancer,
    make_balancer,
)
from repro.service.jobs import (
    DEFAULT_TENANT,
    DEFAULT_TENANT_SPEC,
    Job,
    JobResult,
    JobStatus,
    QuotaExceededError,
    TenantSpec,
    kernel_class_for,
    kernel_for,
)
from repro.service.executor import (
    SessionSpec,
    make_backend,
    validate_backend,
    validate_transport,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkItem
from repro.service.queue import JobQueue
from repro.service.windows import WindowManager
from repro.workloads.streams import TimestampedBatch

#: How long the dispatcher naps when every in-flight source is a
#: network stream still waiting on its client (nothing to step).
SOURCE_WAIT = 0.001


def _spec_factory(
    jobs: Dict[str, Job],
    jobs_lock,
    config: ArchitectureConfig,
    max_cycles_per_segment: int,
    engine: str,
) -> Callable[[str], SessionSpec]:
    """``job_id -> SessionSpec``: the backend's per-job session recipes.

    The backend port never sees the live :class:`Job` (it holds the
    source iterator); only the picklable spec crosses it — and, for the
    process backend, the process boundary.  The factory is bound to the
    job registry and the service's fixed knobs, not to the service: a
    backend holding a bound method of its own service closes a
    reference cycle, and a dropped service's jobs and results would then
    live until the cyclic collector's next full pass.
    """

    def spec_for(job_id: str) -> SessionSpec:
        with jobs_lock:
            job = jobs[job_id]
        return SessionSpec(
            app=job.app,
            config=config,
            max_cycles_per_segment=max_cycles_per_segment,
            engine=engine,
            params=job.params,
        )

    return spec_for


@dataclass
class _ActiveJob:
    """Dispatcher-side state of one admitted, still-streaming job."""

    job: Job
    windows: WindowManager
    source: Iterator[TimestampedBatch]
    by_key: bool


class StreamService:
    """In-process multi-tenant stream-serving system.

    Parameters
    ----------
    workers:
        Pipeline fleet size K.
    balancer:
        ``"skew"`` (default), ``"roundrobin"``, or a ready-made
        :class:`~repro.service.balancer.FleetBalancer`.
    config:
        Per-worker pipeline shape; defaults to the paper's 16-PriPE
        design without on-chip SecPEs (fleet-level balancing supplies
        the skew handling).
    max_cycles_per_segment:
        Cycle budget for one worker's shard of one window.
    allowed_lateness:
        Event-time slack forwarded to every job's window manager.
    engine:
        Segment executor: ``"fast"`` (default) computes exact results
        with vectorised reductions and modeled cycles
        (:mod:`repro.core.fastpath`); ``"cycle"`` ticks the full
        per-cycle simulator for every window shard.
    backend:
        Execution backend behind the fleet port
        (:mod:`repro.service.executor`): ``"inline"`` (default) runs
        every shard on the dispatcher thread — no worker threads;
        results and trace order are deterministic and replay safe;
        ``"process"`` runs the K workers as warm, pre-forked
        subprocesses that escape the GIL for multi-core wall-time
        scaling.  Results are bit-identical across backends.
    transport:
        Shard transport of the process backend: ``"pipe"`` (default)
        serializes shard arrays through each worker's pipe; ``"shm"``
        writes them once into a shared-memory slab arena
        (:mod:`repro.service.shm`) and ships only descriptors — zero
        copies on the hot path.  Results, dispatch clocks, and the
        deterministic metrics are bit-identical across transports; the
        inline backend accepts and ignores the knob.
    adaptive:
        Enable the :mod:`repro.control` control plane: the balancer
        stops replanning reflexively on every window and an
        :class:`~repro.control.controller.AdaptiveController` decides
        per closed window whether drift justifies a replan (with plan
        caching) and — given an SLO — whether to resize the fleet.
        Requires the skew-aware balancer.
    slo:
        Cycles-per-tuple service objective enabling elastic autoscaling
        (only meaningful with ``adaptive=True``).  None keeps the fleet
        size fixed.
    control:
        Optional :class:`~repro.control.controller.ControlPolicy`
        overriding the controller's default tunables.
    reschedule_cost_cycles:
        Fleet-wide stall (simulated cycles) charged to the makespan each
        time the active plan *changes* — the serving-level analogue of
        the paper's detection + drain + re-enqueue + re-profiling cost.
        The default None keeps rescheduling free (the historical
        accounting) for non-adaptive services and derives a cost from
        the architecture configuration for adaptive ones; an explicit
        value (including 0) is honored as given in both modes.
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

    def __init__(
        self,
        workers: int = 4,
        balancer: Union[str, FleetBalancer] = "skew",
        config: Optional[ArchitectureConfig] = None,
        max_cycles_per_segment: int = 20_000_000,
        allowed_lateness: float = 0.0,
        engine: str = "fast",
        backend: str = "inline",
        transport: str = "pipe",
        adaptive: bool = False,
        slo: Optional[float] = None,
        control: Optional[ControlPolicy] = None,
        reschedule_cost_cycles: Optional[int] = None,
        retained_jobs: Optional[int] = None,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        self.config = config or ArchitectureConfig(
            lanes=8, pripes=16, secpes=0, reschedule_threshold=0.0)
        self.engine = validate_engine(engine)
        self.backend = validate_backend(backend)
        self.transport = validate_transport(transport)
        if isinstance(balancer, str):
            balancer = make_balancer(balancer, workers)
        if balancer.workers != workers:
            raise ValueError("balancer sized for a different fleet")
        self.balancer = balancer
        self.metrics = ServiceMetrics()
        self.tracer = tracer if tracer is not None else TraceCollector(
            enabled=False)
        self.tracer.bind_clock(self.metrics.dispatch_clock)
        self.max_cycles_per_segment = max_cycles_per_segment
        self.allowed_lateness = allowed_lateness
        if reschedule_cost_cycles is not None and reschedule_cost_cycles < 0:
            raise ValueError("reschedule_cost_cycles must be non-negative")
        self.reschedule_cost_cycles = reschedule_cost_cycles or 0
        self._queue = JobQueue()
        self._tenants: Dict[str, TenantSpec] = {
            DEFAULT_TENANT: DEFAULT_TENANT_SPEC,
        }
        if retained_jobs is not None and retained_jobs < 1:
            raise ValueError("retained_jobs must be at least 1 (or None)")
        self.retained_jobs = retained_jobs
        self._step_credit: Dict[str, float] = {}
        self._step_rotation: Dict[str, int] = {}
        self._round_steps = 0
        self._round_waits = 0
        # The job registry is shared with ingest threads (the network
        # gateway submits/polls from connection threads while the
        # dispatcher runs), so every access goes through _jobs_lock.
        self._jobs: Dict[str, Job] = {}  # guarded-by: _jobs_lock
        self._jobs_lock = threading.RLock()
        self._terminal: "OrderedDict[str, None]" = OrderedDict()  # guarded-by: _jobs_lock
        self._pool = make_backend(
            self.backend, workers,
            _spec_factory(self._jobs, self._jobs_lock, self.config,
                          max_cycles_per_segment, self.engine),
            self.metrics, tracer=self.tracer, transport=self.transport)
        self._controller: Optional[AdaptiveController] = None
        if adaptive:
            if not isinstance(self.balancer, SkewAwareBalancer):
                raise ValueError(
                    "adaptive control requires the skew-aware balancer")
            policy = control or ControlPolicy()
            if policy.reschedule_cost_cycles is None:
                # Precedence: the policy's cost, else the service-level
                # knob (an explicit 0 means free), else the derived
                # default from the architecture configuration.
                policy = policy.with_cost(
                    reschedule_cost_cycles
                    if reschedule_cost_cycles is not None
                    else default_reschedule_cost_cycles(self.config))
            # Reacting is the controller's call now, not a reflex.
            self.balancer.auto_replan = False
            self._controller = AdaptiveController(
                self.balancer, self._pool, self.metrics,
                policy=policy, slo=slo, tracer=self.tracer)
        elif slo is not None or control is not None:
            raise ValueError("slo/control require adaptive=True")

    @property
    def controller(self) -> Optional[AdaptiveController]:
        """The adaptive controller, or None when ``adaptive=False``."""
        return self._controller

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def register_tenant(self, spec: TenantSpec) -> None:
        """Install (or update) a tenant's scheduling contract.

        Unregistered tenant IDs are accepted at submit time with the
        default contract (weight 1, no SLO, one job in flight);
        registration is how a tenant gets a weight, an admission quota,
        a queue-delay SLO, or a worker quota.
        """
        if spec.worker_quota is not None \
                and spec.worker_quota > self._pool.size:
            raise ValueError(
                f"worker_quota {spec.worker_quota} exceeds the fleet "
                f"({self._pool.size} workers)")
        self._tenants[spec.tenant_id] = spec
        self._queue.register_tenant(spec)
        self.metrics.register_tenant(
            spec.tenant_id, weight=spec.weight,
            slo_delay_tuples=spec.slo_delay_tuples)

    def tenant_spec(self, tenant_id: str) -> TenantSpec:
        """The registered spec, or the default contract for that ID."""
        spec = self._tenants.get(tenant_id)
        if spec is None:
            spec = TenantSpec(tenant_id)
        return spec

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
            self.metrics.record_rejected(tenant_id)
            raise
        self.metrics.record_submit(tenant_id)
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
            self.metrics.record_cancelled(job.tenant_id)
            if self.tracer.enabled:
                self.tracer.emit(trace_events.JOB_CANCEL,
                                 job_id=job.job_id,
                                 tenant_id=job.tenant_id)
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
            "segments_done": len(job.history),
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
            tuples=sum(record.tuples for record in job.history),
            cycles=sum(record.cycles for record in job.history),
            segments=len(job.history),
            late_tuples=job.late_tuples,
            tenant_id=job.tenant_id,
            queue_delay=job.queue_delay,
        )

    def run(self, max_jobs: Optional[int] = None) -> int:
        """Serve queued jobs until the queue empties; returns jobs run.

        The dispatcher admits jobs in the queue's weighted-fair order,
        keeps up to ``TenantSpec.max_in_flight`` jobs per tenant in
        flight at once, and interleaves the in-flight jobs' source
        batches in proportion to tenant weight (a deficit counter per
        tenant).  Each job's windows fan out over the whole worker
        fleet.  ``max_jobs`` caps how many jobs are *admitted* (the
        historical ``served`` semantics).
        """
        self._pool.start()
        self._step_credit.clear()
        self._step_rotation.clear()
        admitted = 0
        finished = 0
        active: List[_ActiveJob] = []
        in_flight: Dict[str, int] = {}
        while True:
            self.metrics.sample_queue_depth(self._queue.depth())
            while max_jobs is None or admitted < max_jobs:
                blocked = {
                    tenant for tenant, count in in_flight.items()
                    if count >= self.tenant_spec(tenant).max_in_flight
                }
                job = self._queue.pop(timeout=0.0, blocked=blocked)
                if job is None:
                    break
                other_by_key = any(entry.by_key for entry in active)
                active.append(self._start_job(job, other_by_key))
                in_flight[job.tenant_id] = \
                    in_flight.get(job.tenant_id, 0) + 1
                admitted += 1
            if not active:
                break
            for entry in self._step_round(active):
                active.remove(entry)
                tenant_id = entry.job.tenant_id
                in_flight[tenant_id] -= 1
                if in_flight[tenant_id] == 0 \
                        and self._controller is not None:
                    # The tenant's last stream left the fleet: its
                    # histogram no longer belongs in the merged load
                    # the control loop plans against.
                    self._controller.forget_tenant(tenant_id)
                finished += 1
            if active and self._round_steps == 0 \
                    and self._round_waits > 0:
                # Every steppable source this round was a network
                # stream with nothing buffered yet: yield briefly so
                # the wait on the clients is not a hot spin.  (A round
                # with zero steps from fractional tenant weight banks
                # credit instead and must not sleep.)
                time.sleep(SOURCE_WAIT)
        return finished

    def _step_round(self, active: List[_ActiveJob]) -> List[_ActiveJob]:
        """One weighted scheduling round over the in-flight jobs.

        Every tenant with in-flight jobs earns ``weight`` step credit;
        each whole credit pulls one source batch from one of the
        tenant's jobs (round-robin among them), so tenants share the
        dispatcher in weight proportion whatever their job counts.
        Returns the jobs that finished (or failed) this round.
        """
        finished: List[_ActiveJob] = []
        self._round_steps = 0
        self._round_waits = 0
        by_tenant: Dict[str, List[_ActiveJob]] = {}
        for entry in active:
            by_tenant.setdefault(entry.job.tenant_id, []).append(entry)
        for tenant_id in sorted(by_tenant):
            credit = self._step_credit.get(tenant_id, 0.0) \
                + self.tenant_spec(tenant_id).weight
            steps = int(credit)
            self._step_credit[tenant_id] = credit - steps
            entries = by_tenant[tenant_id]
            # The rotation pointer persists across rounds so a tenant
            # whose weight grants one step per round still round-robins
            # its in-flight jobs instead of pinning the first.
            rotation = self._step_rotation.get(tenant_id, 0)
            skipped = 0
            while steps > 0 and entries and skipped < len(entries):
                # Normalize before indexing: a stale pointer beyond the
                # current list (earlier wrap, earlier removal) must map
                # onto the job the round-robin actually owes a step.
                rotation %= len(entries)
                entry = entries[rotation]
                if not self._source_ready(entry):
                    # A network stream with nothing buffered: pulling
                    # it would block the whole single-threaded
                    # dispatcher in next(), stalling every other
                    # tenant's jobs.  Pass over it and serve whoever
                    # has data; a full rotation of such skips forfeits
                    # the tenant's remaining steps this round (idle
                    # eviction lives in the source's readiness probe).
                    rotation += 1
                    skipped += 1
                    self._round_waits += 1
                    continue
                skipped = 0
                steps -= 1
                self._round_steps += 1
                if self._step_job(entry):
                    finished.append(entry)
                    # Removing by index slides the successor into this
                    # slot; the pointer stays put so that successor is
                    # served next instead of being skipped (and the
                    # predecessor is not double-stepped).
                    entries.pop(rotation)
                else:
                    rotation += 1
            self._step_rotation[tenant_id] = \
                rotation % len(entries) if entries else 0
        return finished

    def shutdown(self) -> None:
        """Stop the worker fleet (drains outstanding work first)."""
        self._pool.stop()

    # ------------------------------------------------------------------
    # Dispatcher internals
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def _retire(self, job: Job) -> None:
        """Register a terminal job and enforce the retention bound."""
        job.finish_clock = self.metrics.dispatch_clock()
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

    def _start_job(self, job: Job, other_by_key: bool) -> _ActiveJob:
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
        self._pool.clear_errors(job.job_id)
        # Non-splittable kernels (heavy hitters) need every key's tuples
        # on one worker; a class-level contract, no kernel built.
        by_key = not kernel_class_for(job.app).splittable
        if by_key and not other_by_key \
                and isinstance(self.balancer, SkewAwareBalancer):
            # Sticky ownership is a per-job contract (sessions are per
            # (worker, job)): forget the previous job's pins so this
            # job's keys place under the *current* plan and the map
            # cannot grow without bound across jobs.  With another
            # by-key job still in flight the pins are shared state and
            # must survive until that job collects.
            self.balancer.reset_key_ownership()
        if self._controller is not None:
            # A freeze is a per-workload verdict, not a service-lifetime
            # one: re-arm the control loop for the new job's stream.
            self._controller.unfreeze()
        return _ActiveJob(
            job=job,
            windows=WindowManager(job.window_seconds,
                                  allowed_lateness=self.allowed_lateness),
            source=iter(job.source),
            by_key=by_key,
        )

    @staticmethod
    def _source_ready(entry: _ActiveJob) -> bool:
        """Whether pulling the job's source would not block.

        Sources may expose a non-blocking ``poll_ready()`` probe (the
        network ingest buffer does); plain in-process iterators never
        block and are always steppable.
        """
        probe = getattr(entry.source, "poll_ready", None)
        return probe is None or bool(probe())

    def _step_job(self, entry: _ActiveJob) -> bool:
        """Pull one source batch for one in-flight job.

        Returns True when the job left the active set (completed or
        failed) this step.
        """
        job = entry.job
        try:
            try:
                events = next(entry.source)
            except StopIteration:
                self._dispatch(job, entry.windows.flush(), entry.by_key)
                self._finish_job(entry)
                return True
            self._dispatch(job, entry.windows.observe(events),
                           entry.by_key)
        except Exception as exc:  # noqa: BLE001 — a bad source fails the job
            self._pool.drain()
            self._pool.collect(job.job_id)  # release partial sessions
            job.late_tuples = entry.windows.late_tuples
            self.metrics.record_late(entry.windows.late_tuples)
            self._fail(job, f"source error: {exc}")
            return True
        return False

    def _finish_job(self, entry: _ActiveJob) -> None:
        job = entry.job
        self._pool.drain()
        job.late_tuples = entry.windows.late_tuples
        self.metrics.record_late(entry.windows.late_tuples)
        errors = self._pool.errors(job.job_id)
        if errors:
            self._pool.collect(job.job_id)  # release partial sessions
            self._fail(job, "; ".join(errors))
            return
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_MERGE,
                job_id=job.job_id, tenant_id=job.tenant_id,
                windows=job.windows_dispatched)
        merged = self._pool.collect(job.job_id)
        if merged is not None:
            job.result = merged.result
            job.history = merged.history
        job.status = JobStatus.COMPLETED
        self.metrics.record_completed(job.tenant_id)
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_COMPLETE,
                job_id=job.job_id, tenant_id=job.tenant_id,
                segments=len(job.history),
                late_tuples=job.late_tuples)
        self._job_left_fleet(job)

    def _fail(self, job: Job, message: str) -> None:
        job.status = JobStatus.FAILED
        job.error = message
        self.metrics.record_failed(job.tenant_id)
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.JOB_FAIL,
                job_id=job.job_id, tenant_id=job.tenant_id,
                error=message)
        self._job_left_fleet(job)

    def _job_left_fleet(self, job: Job) -> None:
        """Common exit bookkeeping for completed AND failed jobs.

        The balancer's rebalance counter is pulled, not pushed, so it
        must sync on every exit path — a job that fails after
        triggering replans would otherwise leave ``metrics.rebalances``
        stale until the next success.
        """
        self.metrics.rebalances = self.balancer.rebalances
        self._retire(job)

    def _dispatch(self, job: Job, closed_windows,  # hot-path
                  by_key: bool = False) -> None:
        spec = self.tenant_spec(job.tenant_id)
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
            if tracer.enabled:
                tracer.emit(
                    trace_events.JOB_WINDOW, dispatch_clock,
                    job_id=job.job_id, tenant_id=job.tenant_id,
                    tuples=len(batch),
                    window_index=job.windows_dispatched)
            keys = np.asarray(batch.keys)
            if self._controller is not None:
                self._controller.on_window(keys, len(batch),
                                           tenant_id=job.tenant_id)
            else:
                # Legacy reflexive path: observe replans as a side
                # effect; charge the stall for every plan change (to the
                # tenant whose window triggered it) so the accounting
                # matches the adaptive path's.
                changes_before = self.balancer.rebalances
                self.balancer.observe(keys)
                changed = self.balancer.rebalances - changes_before
                if changed and self.reschedule_cost_cycles:
                    self.metrics.record_control(
                        reschedule_stall_cycles=(
                            changed * self.reschedule_cost_cycles),
                        tenant=job.tenant_id)
            shards = self.balancer.split(batch, by_key=by_key)
            shards = self._fold_to_quota(shards, spec)
            for worker_id, shard in shards.items():
                if tracer.enabled:
                    tracer.emit(
                        trace_events.JOB_SHARD, dispatch_clock,
                        job_id=job.job_id, tenant_id=job.tenant_id,
                        worker=worker_id, tuples=len(shard))
                self._pool.dispatch(
                    worker_id,
                    WorkItem(job_id=job.job_id, batch=shard,
                             tenant_id=job.tenant_id,
                             dispatch_clock=dispatch_clock),
                )
            job.windows_dispatched += 1

    def _fold_to_quota(self, shards, spec: TenantSpec):
        """Cap a tenant's fan-out at its worker quota.

        Shards bound for workers beyond the quota fold onto
        ``worker_id % quota`` — deterministic, so a by-key job's tuples
        still land on one (folded) worker per key.
        """
        quota = spec.worker_quota
        if quota is None or quota >= self._pool.size:
            return shards
        folded: Dict[int, Any] = {}
        for worker_id in sorted(shards):
            target = worker_id % quota
            if target in folded:
                folded[target] = folded[target].concat(shards[worker_id])
            else:
                folded[target] = shards[worker_id]
        return folded
