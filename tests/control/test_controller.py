"""AdaptiveController end to end: drift loop, cache, elastic sizing.

Unit tests drive the controller directly with synthetic windows; the
integration tests run it inside a real :class:`StreamService` and hold
the adaptive fleet to the same golden-result bar as the static one.
"""

import itertools

import numpy as np
import pytest

from repro.control import AdaptiveController, ControlPolicy
from repro.service import ServiceMetrics, StreamService, WorkerPool
from repro.service.balancer import SkewAwareBalancer, shard_of_keys
from repro.service.jobs import kernel_for
from repro.workloads.evolving import EvolvingZipfStream
from repro.workloads.streams import NetworkModel, arrival_stream
from repro.workloads.zipf import ZipfGenerator

WINDOW_TUPLES = 2_000
WINDOW = WINDOW_TUPLES / NetworkModel().tuples_per_second


def make_controller(workers=4, slo=None, **policy_kwargs):
    policy_kwargs.setdefault("reschedule_cost_cycles", 10_000)
    policy_kwargs.setdefault("cycles_per_tuple", 1.0)
    balancer = SkewAwareBalancer(workers, auto_replan=False)
    metrics = ServiceMetrics()
    pool = WorkerPool(workers, lambda job_id: None, metrics)
    controller = AdaptiveController(
        balancer, pool, metrics, policy=ControlPolicy(**policy_kwargs),
        slo=slo)
    return controller, balancer, metrics


def hot_keys(seed, tuples=2_000):
    return ZipfGenerator(alpha=2.5, seed=seed).generate(tuples).keys


def drifting_windows(windows, primaries):
    """``windows`` windows of ``hot_keys`` whose hottest key lands in
    another fleet shard than the previous window's: the hot shard
    moves every window, by construction."""
    chosen, previous = [], None
    for seed in itertools.count(1):
        window = hot_keys(seed)
        keys, counts = np.unique(window, return_counts=True)
        shard = int(shard_of_keys(keys[[counts.argmax()]], primaries)[0])
        if shard != previous:
            chosen.append(window)
            previous = shard
        if len(chosen) == windows:
            return chosen


class TestPlanCacheNamespaces:
    def test_plans_cache_under_the_tenant_namespace(self):
        controller, balancer, _ = make_controller()
        controller.on_window(hot_keys(1), WINDOW_TUPLES,
                             tenant_id="alice")
        hist = balancer.last_histogram
        assert controller._cache_namespace() == "alice"
        assert controller.cache.lookup(hist,
                                       namespace="alice") is not None
        # The same signature under another tenant is a different key:
        # bob can no longer evict (or poach) alice's plan.
        assert controller.cache.lookup(hist, namespace="bob") is None

    def test_mixture_namespace_joins_in_flight_tenants(self):
        controller, _, _ = make_controller()
        controller.on_window(hot_keys(1), WINDOW_TUPLES, tenant_id="bob")
        controller.on_window(hot_keys(1), WINDOW_TUPLES,
                             tenant_id="alice")
        assert controller._cache_namespace() == "alice+bob"
        controller.forget_tenant("bob")
        assert controller._cache_namespace() == "alice"


class TestControlLoop:
    def test_first_window_plans_without_stall(self):
        controller, balancer, metrics = make_controller()
        assert controller.on_window(hot_keys(1), WINDOW_TUPLES) == "plan"
        assert balancer.plan is not None
        assert metrics.control["replans_applied"] == 0
        assert metrics.control["reschedule_stall_cycles"] == 0

    def test_stable_windows_stay_steady(self):
        controller, _, metrics = make_controller()
        controller.on_window(hot_keys(1), WINDOW_TUPLES)
        for _ in range(3):
            assert controller.on_window(hot_keys(1),
                                        WINDOW_TUPLES) == "steady"
        assert metrics.control["drift_events"] == 0

    def test_fast_drift_is_held_and_charged_nothing(self):
        controller, balancer, metrics = make_controller(
            amortize_factor=4.0)
        first, *moving = drifting_windows(11, balancer.primaries)
        controller.on_window(first, WINDOW_TUPLES)
        plan_before = balancer.plan.pairs
        held = 0
        for keys in moving:  # hot key moves every window
            action = controller.on_window(keys, WINDOW_TUPLES)
            held += action == "hold"
        assert held >= 3
        assert metrics.control["replans_applied"] == 0
        assert metrics.control["reschedule_stall_cycles"] == 0
        assert balancer.plan.pairs == plan_before

    def test_slow_drift_replans_and_charges_the_stall(self):
        controller, balancer, metrics = make_controller(
            reschedule_cost_cycles=100, hysteresis_windows=1)
        controller.on_window(hot_keys(1), WINDOW_TUPLES)
        # Several quiet windows, then the hot key moves: the interval
        # since the last drift is large, so replanning amortises.
        for _ in range(5):
            controller.on_window(hot_keys(1), WINDOW_TUPLES)
        action = controller.on_window(hot_keys(4), WINDOW_TUPLES)
        assert action == "replan"
        assert metrics.control["replans_applied"] == 1
        assert metrics.control["reschedule_stall_cycles"] == 100
        assert metrics.plan_ages  # retired plan's age was recorded

    def test_persistent_shift_replans_despite_thrash_classification(self):
        """A one-time step change fires drift vs the stale reference on
        every window (interval = one window, nominally 'thrashing'), but
        the windows agree with each other — the controller must notice
        the stream has settled and replan instead of holding forever."""
        controller, balancer, metrics = make_controller(
            amortize_factor=4.0, hysteresis_windows=2)
        for _ in range(5):
            controller.on_window(hot_keys(1), WINDOW_TUPLES)
        plan_before = balancer.plan.pairs
        actions = [controller.on_window(hot_keys(4), WINDOW_TUPLES)
                   for _ in range(6)]
        assert "replan" in actions[:4], actions
        assert balancer.plan.pairs != plan_before
        assert metrics.control["replans_applied"] >= 1
        # And once replanned, the settled distribution is steady again.
        assert actions[-1] == "steady"

    def test_burst_regime_freezes_until_unfrozen(self):
        controller, balancer, metrics = make_controller(
            burst_tuples=WINDOW_TUPLES * 10)
        first, second, third = drifting_windows(3, balancer.primaries)
        controller.on_window(first, WINDOW_TUPLES)
        assert controller.on_window(second, WINDOW_TUPLES) == "freeze"
        assert controller.frozen
        assert controller.on_window(third, WINDOW_TUPLES) == "frozen"
        controller.unfreeze()
        assert not controller.frozen
        assert metrics.control["replans_suppressed"] >= 1

    def test_replans_hit_the_cache_on_recurring_distributions(self):
        controller, _, metrics = make_controller(
            reschedule_cost_cycles=100, hysteresis_windows=1)
        # Two alternating distributions, far enough apart to amortise.
        for cycle in range(3):
            for seed in (1, 4):
                controller.on_window(hot_keys(seed), WINDOW_TUPLES)
                for _ in range(5):
                    controller.on_window(hot_keys(seed), WINDOW_TUPLES)
        assert metrics.control["replans_applied"] >= 3
        assert metrics.control["plan_cache_hits"] \
            >= metrics.control["replans_applied"] - 2

    def test_describe_mentions_cache_and_slo(self):
        controller, _, _ = make_controller(slo=0.5)
        assert "slo=0.5" in controller.describe()


class TestServiceIntegration:
    def test_adaptive_requires_skew_balancer(self):
        with pytest.raises(ValueError, match="skew-aware"):
            StreamService(workers=4, balancer="roundrobin", adaptive=True)

    def test_slo_requires_adaptive(self):
        with pytest.raises(ValueError, match="adaptive"):
            StreamService(workers=4, slo=0.5)

    def test_adaptive_service_matches_golden_under_drift(self):
        stream = EvolvingZipfStream(alpha=2.0,
                                    interval_tuples=WINDOW_TUPLES,
                                    total_tuples=20_000, base_seed=3)
        svc = StreamService(
            workers=4, adaptive=True,
            control=ControlPolicy(reschedule_cost_cycles=10_000))
        job_id = svc.submit("histo", arrival_stream(stream),
                            window_seconds=WINDOW)
        svc.run()
        result = svc.result(job_id).result
        svc.shutdown()
        full = EvolvingZipfStream(alpha=2.0,
                                  interval_tuples=WINDOW_TUPLES,
                                  total_tuples=20_000,
                                  base_seed=3).materialize()
        golden = kernel_for("histo", 16).golden(full.keys, full.values)
        assert np.array_equal(result, golden)

    def test_autoscaler_grows_fleet_under_tight_slo(self):
        stream = EvolvingZipfStream(alpha=0.0, interval_tuples=40_000,
                                    total_tuples=40_000, base_seed=7)
        svc = StreamService(
            workers=2, adaptive=True, slo=0.04,
            control=ControlPolicy(reschedule_cost_cycles=1_000,
                                  autoscale_every=2, scale_cooldown=0,
                                  max_workers=6))
        job_id = svc.submit("histo", arrival_stream(stream),
                            window_seconds=WINDOW)
        svc.run()
        result = svc.result(job_id).result
        snap = svc.metrics.snapshot()
        svc.shutdown()
        assert snap["control"]["scale_up_events"] >= 1
        assert svc.balancer.workers > 2
        assert svc.balancer.workers <= 6
        full = EvolvingZipfStream(alpha=0.0, interval_tuples=40_000,
                                  total_tuples=40_000,
                                  base_seed=7).materialize()
        golden = kernel_for("histo", 16).golden(full.keys, full.values)
        assert np.array_equal(result, golden)

    def test_autoscaler_shrinks_idle_fleet_and_keeps_results(self):
        """Scale-down mid-job: removed workers' partial sessions must
        still merge into the final result."""
        stream = EvolvingZipfStream(alpha=0.0, interval_tuples=40_000,
                                    total_tuples=40_000, base_seed=9)
        svc = StreamService(
            workers=4, adaptive=True, slo=10.0,
            control=ControlPolicy(reschedule_cost_cycles=1_000,
                                  autoscale_every=2, scale_cooldown=0,
                                  min_workers=2, shrink_margin=0.9))
        job_id = svc.submit("histo", arrival_stream(stream),
                            window_seconds=WINDOW)
        svc.run()
        result = svc.result(job_id).result
        snap = svc.metrics.snapshot()
        svc.shutdown()
        assert snap["control"]["scale_down_events"] >= 1
        assert svc.balancer.workers == 2
        full = EvolvingZipfStream(alpha=0.0, interval_tuples=40_000,
                                  total_tuples=40_000,
                                  base_seed=9).materialize()
        golden = kernel_for("histo", 16).golden(full.keys, full.values)
        assert np.array_equal(result, golden)

    def test_explicit_zero_cost_is_honored_not_derived(self):
        svc = StreamService(workers=4, adaptive=True,
                            reschedule_cost_cycles=0)
        assert svc.controller.policy.reschedule_cost_cycles == 0
        svc_default = StreamService(workers=4, adaptive=True)
        assert svc_default.controller.policy.reschedule_cost_cycles > 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StreamService(workers=4, reschedule_cost_cycles=-1)

    def test_freeze_does_not_leak_into_the_next_job(self):
        """A burst-absorption freeze is a per-workload verdict; the next
        job must get a live control loop again."""
        policy = ControlPolicy(reschedule_cost_cycles=100,
                               burst_tuples=WINDOW_TUPLES * 10)
        svc = StreamService(workers=4, adaptive=True, control=policy)
        bursty = EvolvingZipfStream(alpha=2.5,
                                    interval_tuples=WINDOW_TUPLES,
                                    total_tuples=10_000, base_seed=1)
        svc.submit("histo", arrival_stream(bursty),
                   window_seconds=WINDOW)
        svc.run()
        assert svc.controller.frozen  # first job froze the loop
        drift_after_first = svc.metrics.control["drift_events"]
        svc.submit("histo", arrival_stream(bursty),
                   window_seconds=WINDOW, job_id="second")
        svc.run()
        assert svc.poll("second")["status"] == "completed"
        # The loop was re-armed at job start: the second job's drift was
        # *evaluated* again (and re-froze), not skipped as "frozen".
        assert svc.metrics.control["drift_events"] > drift_after_first
        svc.shutdown()

    def test_multiple_jobs_share_one_control_loop(self):
        svc = StreamService(
            workers=4, adaptive=True,
            control=ControlPolicy(reschedule_cost_cycles=5_000))
        batches = {}
        for app, seed in (("histo", 1), ("hll", 2)):
            stream = EvolvingZipfStream(alpha=1.8,
                                        interval_tuples=WINDOW_TUPLES,
                                        total_tuples=10_000,
                                        base_seed=seed)
            batches[app] = (
                svc.submit(app, arrival_stream(stream),
                           window_seconds=WINDOW),
                stream,
            )
        assert svc.run() == 2
        for app, (job_id, stream) in batches.items():
            result = svc.result(job_id).result
            refreshed = EvolvingZipfStream(
                alpha=1.8, interval_tuples=WINDOW_TUPLES,
                total_tuples=10_000,
                base_seed=stream.base_seed).materialize()
            golden = kernel_for(app, 16).golden(refreshed.keys,
                                                refreshed.values)
            assert np.array_equal(result, golden)
        assert svc.controller.windows == svc.metrics.windows_closed
        svc.shutdown()
