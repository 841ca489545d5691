"""The fleet's controller: the one decision point per closed window.

:class:`AdaptiveController` owns the serving layer's control loop: the
balancer only *observes* every window (a seeded subsample and a
histogram); reacting is :meth:`AdaptiveController.on_window`'s call.
The reflexive policy (``StreamService(adaptive=False)``) adopts each
window's greedy plan, the reflex the paper's Fig. 9 shows can thrash;
the adaptive one makes reacting a decision:

1. The :class:`~repro.control.detector.DriftDetector` compares the
   window's shard histogram against the one the active plan was built
   from.
2. On drift, :func:`repro.control.replanner.decide` places the
   estimated drift interval into a Fig. 9 regime: replan (amortised),
   hold the plan (thrashing), or freeze the control loop (burst
   absorption).
3. A replan re-runs the greedy assignment on the merged histogram, as
   the paper's host re-runs it on every reschedule, and charges the
   fleet the rescheduling stall.
4. Every ``autoscale_every`` windows the
   :class:`~repro.control.autoscaler.Autoscaler` checks recent cycles
   per tuple against the SLO and resizes the worker pool, reshaping the
   balancer's primary/secondary split to match.

Every tunable lives in one :class:`ControlPolicy`, read when a
decision is made, and the rescheduling stall is the one integer the
service resolved.  The controller is consulted from the dispatcher
thread only; it mutates the balancer and pool from that single thread
and records its activity — stalls, and the balancer's plan-change count
beside every plan change — in
:class:`~repro.service.metrics.ServiceMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.control import replanner
from repro.control.autoscaler import Autoscaler
from repro.control.detector import DriftDetector, total_variation
from repro.control.replanner import ReplanDecision
from repro.core.profiler import greedy_secpe_plan
from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector


#: Per-tenant queue-delay SLO attainment below which the autoscaler
#: treats the fleet as under-provisioned: it grows (capacity
#: permitting) and refuses to shrink even if the fleet-wide
#: cycles-per-tuple objective looks comfortable.
TENANT_ATTAINMENT_TARGET = 0.9


@dataclass(frozen=True)
class ControlPolicy:
    """Tunables of the adaptive control loop — their one declaration.

    The replanner and the autoscaler read these fields when they decide,
    and :meth:`__post_init__` is their only validation.  The
    rescheduling cost is not a tunable here: the service resolves it
    once (``StreamService(reschedule_cost_cycles=)``).

    Attributes
    ----------
    reflexive:
        Adopt the greedy plan of every window's own sample (never the
        tenant-merged histogram), charging each plan change to the
        window's tenant; the fields below, the detector and
        ``control.*`` events go unused.
    cycles_per_tuple:
        Static hint converting drift intervals (measured in tuples) to
        cycles.  A deliberate *hint*, not a live measurement, so a
        replay of the same stream makes the same decisions.
    amortize_factor:
        A replan is worthwhile only when the drift interval exceeds
        ``amortize_factor x`` the rescheduling cost — the same "good
        cycles dominate transition cycles" margin
        :mod:`repro.perf.evolving` uses to separate the amortised regime
        from thrashing.
    burst_tuples:
        Drift intervals at or below this many tuples sit in the
        burst-absorption regime: each distribution's excess queues in
        the worker inboxes/channel FIFOs and drains while other
        distributions are in force, so the controller freezes instead of
        chasing the hot shard.  0 disables the freeze regime.
    hysteresis_windows:
        Minimum closed windows between applied plans, suppressing
        replan/replan flapping when successive samples straddle the
        drift threshold; also how many agreeing drifted windows mark a
        shift as settled.
    autoscale_every:
        Closed windows between autoscaler checks (with an SLO).
    min_workers / max_workers:
        Fleet size clamps.
    shrink_margin:
        Shrink only when observed cycles/tuple sit below
        ``shrink_margin x slo`` — the gap between the grow and shrink
        triggers is the hysteresis band that prevents size flapping.
    scale_cooldown:
        Checks to skip after any resize, letting the reshaped fleet's
        metrics stabilise before judging it.
    """

    reflexive: bool = False
    cycles_per_tuple: float = 0.5
    amortize_factor: float = 4.0
    burst_tuples: int = 0
    hysteresis_windows: int = 2
    autoscale_every: int = 8
    min_workers: int = 1
    max_workers: int = 32
    shrink_margin: float = 0.4
    scale_cooldown: int = 1

    def __post_init__(self) -> None:
        if self.cycles_per_tuple <= 0:
            raise ValueError("cycles_per_tuple must be positive")
        if self.amortize_factor < 1.0:
            raise ValueError("amortize_factor must be >= 1")
        if self.burst_tuples < 0:
            raise ValueError("burst_tuples must be non-negative")
        if self.hysteresis_windows < 0:
            raise ValueError("hysteresis_windows must be non-negative")
        if self.autoscale_every <= 0:
            raise ValueError("autoscale_every must be positive")
        if self.min_workers <= 0 or self.max_workers < self.min_workers:
            raise ValueError("need 0 < min_workers <= max_workers")
        if not 0.0 <= self.shrink_margin < 1.0:
            raise ValueError("shrink_margin must be in [0, 1)")
        if self.scale_cooldown < 0:
            raise ValueError("scale_cooldown must be non-negative")


class AdaptiveController:
    """Closes the loop around one serving fleet.

    Parameters
    ----------
    balancer:
        The fleet's :class:`~repro.service.balancer.SkewAwareBalancer`,
        whose plans only the controller changes.
    pool:
        The fleet's :class:`~repro.service.executor.ExecutionBackend`
        (any adapter — inline or warm subprocesses; resized by
        the autoscaler through the port).
    metrics:
        Shared :class:`~repro.service.metrics.ServiceMetrics`.
    policy:
        :class:`ControlPolicy`; read at every decision, so assigning
        ``controller.policy`` retunes the loop from the next window.
    cost:
        Fleet-wide stall (simulated cycles) charged per plan change —
        the service's resolved ``reschedule_cost_cycles``.
    slo:
        Cycles-per-tuple SLO enabling the autoscaler; None disables
        elastic sizing (drift control still runs).
    tracer:
        Optional :class:`~repro.obs.collector.TraceCollector`; every
        control decision (drift, replan/hold/freeze with its regime
        inputs, plan adoption, autoscaler resizes
        with their reason) is emitted as an audit-log event.  Disabled
        collector by default.
    """

    def __init__(
        self,
        balancer,
        pool,
        metrics,
        policy: Optional[ControlPolicy] = None,
        cost: int = 0,
        slo: Optional[float] = None,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        self.balancer = balancer
        self.pool = pool
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else TraceCollector(
            enabled=False)
        self.policy = policy or ControlPolicy()
        self.cost = cost
        self.detector = DriftDetector()
        self.autoscaler = None if slo is None else Autoscaler(slo)
        self.frozen = False
        self.windows = 0
        self.tuples = 0
        self._tuples_at_last_drift = 0
        self._plan_born_window = 0
        self._scale_tuples = 0
        self._scale_busy_cycles = 0
        # Persistent-shift tracking: the previous window's histogram and
        # how many consecutive drifted windows matched it.
        self._previous_histogram = None
        self._settled_drift_windows = 0
        # Latest per-tenant shard histogram.  With concurrent tenants
        # the dispatcher interleaves windows from *different*
        # distributions; judging drift window-by-window would register
        # permanent phantom drift (each tenant's window "drifts" from
        # the other's).  The control loop therefore plans and detects
        # against the MERGED histogram — the load the shared plan
        # actually has to balance — which is stable when every in-flight
        # tenant's stream is stable.
        self._tenant_histograms: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # The per-window decision point
    # ------------------------------------------------------------------
    def on_window(self, keys: np.ndarray, tuples: int,
                  tenant_id: str = "default") -> str:
        """Consulted by the service once per closed window, pre-split.

        ``tenant_id`` names the tenant whose window this is: if the
        window changes the plan (its drift, or under the reflexive
        policy its own sample), that tenant is charged the rescheduling
        stall in the per-tenant metrics (the fleet-wide makespan pays it
        either way — the attribution answers "who caused it").

        Returns the action taken (for logs and tests): ``"plan"``,
        ``"replan"``, ``"hold"``, ``"freeze"``, ``"frozen"``, or
        ``"steady"``.
        """
        self.windows += 1
        self.tuples += tuples
        self.balancer.observe(keys)
        observed = self.balancer.last_histogram
        if self.policy.reflexive:
            return self._reflex(observed, tenant_id)
        if observed is not None:
            self._tenant_histograms[tenant_id] = observed
        histogram = self._merged_histogram()
        action = "steady"
        if histogram is None:
            action = "steady"
        elif self.balancer.plan is None:
            # First window after startup or a fleet reshape: adopt a plan
            # without charging a stall (nothing was running on the old
            # plan — the fleet analogue of the initial profiling round).
            self._adopt_plan(histogram, initial=True)
            action = "plan"
        elif self.frozen:
            # Burst-absorption regime: the control loop is off, exactly
            # like the profiler's reschedule_threshold=0 mode.
            action = "frozen"
        else:
            report = self.detector.update(histogram)
            if report.drifted:
                self.metrics.record_control(drift_events=1)
                interval = self.tuples - self._tuples_at_last_drift
                self._tuples_at_last_drift = self.tuples
                settled = self._drift_has_settled(histogram)
                if self.tracer.enabled:
                    self.tracer.emit(
                        trace_events.CONTROL_DRIFT,
                        tenant_id=tenant_id,
                        interval_tuples=interval,
                        windows_since_rebase=report.windows_since_rebase,
                        settled=settled)
                if settled:
                    # The stream moved once and is now holding still at
                    # a new distribution: every window drifts vs the
                    # stale reference, but window-to-window the load is
                    # stable.  That is NOT thrashing — one replan
                    # amortises immediately — so override the
                    # interval-based regime call.
                    decision = ReplanDecision.REPLAN
                else:
                    decision = replanner.decide(
                        self.policy, self.cost, interval,
                        report.windows_since_rebase)
                if decision is ReplanDecision.REPLAN:
                    self._adopt_plan(histogram, tenant_id=tenant_id)
                    action = "replan"
                elif decision is ReplanDecision.FREEZE:
                    self.frozen = True
                    self.metrics.record_control(replans_suppressed=1)
                    action = "freeze"
                else:
                    self.metrics.record_control(replans_suppressed=1)
                    action = "hold"
                if self.tracer.enabled:
                    self.tracer.emit(
                        trace_events.CONTROL_DECISION,
                        tenant_id=tenant_id,
                        decision=action,
                        interval_tuples=interval,
                        windows_since_rebase=report.windows_since_rebase,
                        settled=settled,
                        window=self.windows)
            else:
                self._settled_drift_windows = 0
        self._previous_histogram = histogram
        self._maybe_autoscale()
        return action

    def _reflex(self, histogram: Optional[np.ndarray],
                tenant_id: str) -> str:
        """The reflexive policy's window: adopt the greedy plan of the
        window's own sample, charging ``cost`` if that changed the plan."""
        if histogram is None or not self._apply(greedy_secpe_plan(
                histogram, self.balancer.secondaries,
                self.balancer.primaries)):
            return "steady"
        self.metrics.record_control(reschedule_stall_cycles=self.cost,
                                    tenant=tenant_id)
        return "replan"

    def _drift_has_settled(self, histogram) -> bool:
        """True when drifted windows agree with each other, not the plan.

        Counts consecutive drifted windows whose histogram matches the
        *previous* window's (TV below the drift threshold); after
        ``hysteresis_windows`` of those, the shift is persistent rather
        than ongoing churn.
        """
        previous = self._previous_histogram
        if (previous is not None and len(previous) == len(histogram)
                and total_variation(histogram, previous)
                < self.detector.threshold):
            self._settled_drift_windows += 1
        else:
            self._settled_drift_windows = 0
        return self._settled_drift_windows >= self.policy.hysteresis_windows

    def _merged_histogram(self) -> Optional[np.ndarray]:
        """The summed per-tenant histograms — the fleet's actual load.

        Entries sized for a previous fleet shape (stale after a
        reconfigure) are dropped.
        """
        shards = self.balancer.primaries
        stale = [tenant for tenant, hist in self._tenant_histograms.items()
                 if len(hist) != shards]
        for tenant in stale:
            del self._tenant_histograms[tenant]
        if not self._tenant_histograms:
            return None
        merged = None
        for tenant in sorted(self._tenant_histograms):
            hist = self._tenant_histograms[tenant]
            merged = hist.copy() if merged is None else merged + hist
        return merged

    def forget_tenant(self, tenant_id: str) -> None:
        """Drop a tenant's histogram from the merged load (its last job
        left the fleet); the next windows drift-and-settle toward the
        remaining tenants' mixture through the normal machinery."""
        self._tenant_histograms.pop(tenant_id, None)

    def unfreeze(self) -> None:
        """Re-arm the control loop after a burst-absorption freeze."""
        self.frozen = False

    def describe(self) -> str:
        """One-line summary for logs."""
        if self.policy.reflexive:
            return f"reflexive control ({self.windows} windows)"
        autoscale = ("off" if self.autoscaler is None
                     else f"slo={self.autoscaler.slo:g} c/t")
        return (f"adaptive control ({self.windows} windows, "
                f"autoscale {autoscale}"
                f"{', frozen' if self.frozen else ''})")

    # ------------------------------------------------------------------
    # Plan application
    # ------------------------------------------------------------------
    def _apply(self, plan) -> bool:
        """Install ``plan``; True when it changed the plan in force, whose
        new count goes to the metrics at once for mid-job scrapes."""
        rebalances = self.balancer.rebalances
        self.balancer.apply_plan(plan)
        if self.balancer.rebalances == rebalances:
            return False
        self.metrics.set_rebalances(self.balancer.rebalances)
        return True

    def _adopt_plan(self, histogram: np.ndarray,
                    initial: bool = False,
                    tenant_id: Optional[str] = None) -> None:
        plan_age = self.windows - self._plan_born_window
        self._apply(greedy_secpe_plan(histogram, self.balancer.secondaries,
                                      self.balancer.primaries))
        self.detector.rebase(histogram)
        self._plan_born_window = self.windows
        self._settled_drift_windows = 0
        stall = 0 if initial else self.cost
        self.metrics.record_control(
            replans_applied=0 if initial else 1,
            reschedule_stall_cycles=stall,
            plan_age=None if initial else plan_age,
            tenant=tenant_id,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.CONTROL_PLAN,
                tenant_id=tenant_id,
                initial=initial,
                plan_age_windows=None if initial else plan_age,
                stall_cycles=stall,
                window=self.windows)

    # ------------------------------------------------------------------
    # Elastic sizing
    # ------------------------------------------------------------------
    def _maybe_autoscale(self) -> None:
        if self.autoscaler is None:
            return
        if self.windows % self.policy.autoscale_every != 0:
            return
        # Barrier: let every dispatched shard land in the metrics so the
        # decision is a deterministic function of the stream.  The busy
        # measurement covers only the *current* fleet — workers removed
        # by an earlier scale-down keep their counters for reporting,
        # but must not freeze the delta.
        self.pool.drain()
        tuples = self.metrics.total_tuples()
        busy = self.metrics.busiest_worker_cycles(within=self.pool.size)
        # Per-tenant SLO attainment is a second objective: a tenant whose
        # queue-delay SLO is slipping means the fleet is short on
        # capacity even when the fleet-wide cycles-per-tuple looks fine.
        attainment = self.metrics.tenant_slo_attainment()
        pressure = any(
            value < TENANT_ATTAINMENT_TARGET
            for value in attainment.values()
        )
        decision = self.autoscaler.decide(
            self.policy,
            tuples - self._scale_tuples,
            busy - self._scale_busy_cycles,
            self.pool.size,
            slo_pressure=pressure,
        )
        self._scale_tuples = tuples
        self._scale_busy_cycles = busy
        if decision.size == self.pool.size:
            return
        growing = decision.size > self.pool.size
        if self.tracer.enabled:
            self.tracer.emit(
                trace_events.CONTROL_RESIZE,
                size_from=self.pool.size,
                size_to=decision.size,
                reason=decision.reason,
                observed_cycles_per_tuple=(
                    decision.observed_cycles_per_tuple),
                slo_pressure=pressure,
                window=self.windows)
        if growing:
            # Start the new workers before routing can reach them.
            self.pool.resize(decision.size)
            self.balancer.reconfigure(decision.size)
        else:
            # Stop routing to doomed workers before stopping them; their
            # partial sessions stay in the pool for collection.
            self.balancer.reconfigure(decision.size)
            self.pool.resize(decision.size)
        # The fleet shape changed: the drift reference describes a
        # histogram space that no longer exists, and the busy baseline
        # must restart from the surviving workers (a removed worker may
        # have held the old maximum).
        self.detector.reset()
        self._plan_born_window = self.windows
        self._previous_histogram = None
        self._settled_drift_windows = 0
        self._tenant_histograms.clear()
        self._scale_busy_cycles = self.metrics.busiest_worker_cycles(
            within=self.pool.size)
        self.metrics.record_control(
            scale_up_events=int(growing),
            scale_down_events=int(not growing))
