"""AdaptiveController end to end: drift loop, exact plans, elastic sizing.

Unit tests drive the controller directly with synthetic windows; the
integration tests run it inside a real :class:`StreamService` and hold
the adaptive fleet to the same golden-result bar as the static one.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.control import AdaptiveController, ControlPolicy
from repro.core.profiler import greedy_secpe_plan
from repro.obs import MemorySink, TraceCollector
from repro.service import ServiceMetrics, StreamService, WorkerPool
from repro.service.balancer import SkewAwareBalancer, shard_of_keys
from repro.service.jobs import kernel_for
from repro.workloads.evolving import EvolvingZipfStream
from repro.workloads.streams import NetworkModel, arrival_stream
from repro.workloads.zipf import ZipfGenerator

WINDOW_TUPLES = 2_000
WINDOW = WINDOW_TUPLES / NetworkModel().tuples_per_second


def make_controller(workers=4, slo=None, cost=10_000, **policy_kwargs):
    policy_kwargs.setdefault("cycles_per_tuple", 1.0)
    balancer = SkewAwareBalancer(workers)
    metrics = ServiceMetrics()
    pool = WorkerPool(workers, lambda job_id: None, metrics)
    controller = AdaptiveController(
        balancer, pool, metrics, policy=ControlPolicy(**policy_kwargs),
        cost=cost, slo=slo)
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


def shard_window(counts, primaries=3):
    """A window whose fleet shard ``s`` receives exactly ``counts[s]``
    tuples, its keys picked per shard with :func:`shard_of_keys`."""
    candidates = np.arange(1, 20_000, dtype=np.uint64)
    shards = shard_of_keys(candidates, primaries)
    return np.concatenate([np.resize(candidates[shards == shard], count)
                           for shard, count in enumerate(counts)])


class TestExactPlans:
    """A replan adopts the greedy plan of the merged histogram it is
    made for; no plan built for another histogram is reused."""

    def test_every_plan_is_the_greedy_plan_of_its_histogram(self):
        balancer = SkewAwareBalancer(4)
        tracer = TraceCollector(enabled=True)
        sink = tracer.add_sink(MemorySink())
        controller = AdaptiveController(
            balancer, None, ServiceMetrics(),
            policy=ControlPolicy(cycles_per_tuple=1.0,
                                 hysteresis_windows=0),
            cost=100, tracer=tracer)
        # A and B quantise alike (shard shares rounded to eighths read
        # 3, 3, 2 in both) but shard 0 is hottest in A, shard 1 in B;
        # C moves the load away in between.
        a, c, b = (840, 660, 500), (200, 200, 1600), (660, 840, 500)
        histograms, actions = [], []
        for counts in (a, c, b):
            actions.append(controller.on_window(shard_window(counts),
                                                sum(counts)))
            histogram = balancer.last_histogram
            histograms.append(histogram)
            (event,) = [e for e in sink.events
                        if e.kind == "control.plan"
                        and e.data["window"] == controller.windows]
            assert event.data["initial"] == (counts is a)
            assert balancer.plan.pairs == greedy_secpe_plan(
                histogram, balancer.secondaries, balancer.primaries).pairs
        assert actions == ["plan", "replan", "replan"]
        shares_a, _, shares_b = (np.round(h / h.sum() * 8)
                                 for h in histograms)
        assert np.array_equal(shares_a, shares_b)
        assert histograms[0].argmax() != histograms[2].argmax()
        assert balancer.rebalances == 2

    @pytest.mark.parametrize("workers", [3, 4, 6, 8, 12])
    def test_every_adoption_is_greedy_on_any_fleet_shape(self, workers):
        # One to three secondaries over two to nine primaries; a single
        # tenant's merged histogram is its window's own.
        controller, balancer, metrics = make_controller(
            workers=workers, cost=100, hysteresis_windows=0)
        actions = []
        for keys in drifting_windows(8, balancer.primaries):
            actions.append(controller.on_window(keys, WINDOW_TUPLES))
            if actions[-1] in ("plan", "replan"):
                assert balancer.plan.pairs == greedy_plan(
                    balancer, balancer.last_histogram).pairs
        assert actions[0] == "plan"
        assert metrics.control["replans_applied"] \
            == actions.count("replan") >= 1

    def test_a_recurring_distribution_pays_the_full_stall(self):
        # Alternating streams bring back plans adopted before; each
        # return is a fresh plan and charges the whole stall.
        controller, balancer, metrics = make_controller(
            cost=100, hysteresis_windows=1)
        for _ in range(3):
            for seed in (1, 4):
                for _ in range(6):
                    action = controller.on_window(hot_keys(seed),
                                                  WINDOW_TUPLES)
                    if action == "replan":
                        assert balancer.plan.pairs == greedy_plan(
                            balancer, balancer.last_histogram).pairs
        replans = metrics.control["replans_applied"]
        assert replans >= 3
        assert metrics.control["reschedule_stall_cycles"] == 100 * replans

    def test_plan_event_fields(self):
        balancer = SkewAwareBalancer(4)
        tracer = TraceCollector(enabled=True)
        sink = tracer.add_sink(MemorySink())
        controller = AdaptiveController(
            balancer, None, ServiceMetrics(),
            policy=ControlPolicy(cycles_per_tuple=1.0,
                                 hysteresis_windows=0),
            cost=100, tracer=tracer)
        for counts in ((840, 660, 500), (200, 200, 1600)):
            controller.on_window(shard_window(counts), sum(counts),
                                 tenant_id="alice")
        first, replan = [e for e in sink.events if e.kind == "control.plan"]
        assert set(first.data) == set(replan.data) == {
            "initial", "plan_age_windows", "stall_cycles", "window"}
        assert (first.tenant_id, replan.tenant_id) == (None, "alice")
        assert (first.data["stall_cycles"], replan.data["stall_cycles"]) \
            == (0, 100)
        assert replan.data["plan_age_windows"] == 1

    def test_two_tenants_plan_on_their_summed_histogram(self):
        controller, balancer, _ = make_controller(
            cost=100, hysteresis_windows=0)
        controller.on_window(shard_window((900, 50, 50)), 1_000,
                             tenant_id="alice")
        alice = balancer.last_histogram
        action = controller.on_window(shard_window((50, 500, 450)), 1_000,
                                      tenant_id="bob")
        bob = balancer.last_histogram
        assert action == "replan"
        # Bob's window alone would send the helper to shard 1; the
        # fleet's load (alice's and bob's) keeps it on shard 0.
        assert balancer.plan.pairs == greedy_plan(balancer,
                                                  alice + bob).pairs
        assert balancer.plan.pairs != greedy_plan(balancer, bob).pairs

    def test_forgotten_tenant_leaves_the_next_plan(self):
        controller, balancer, _ = make_controller(
            cost=100, hysteresis_windows=0)
        controller.on_window(shard_window((900, 50, 50)), 1_000,
                             tenant_id="alice")
        controller.on_window(shard_window((50, 500, 450)), 1_000,
                             tenant_id="bob")
        controller.forget_tenant("alice")
        action = controller.on_window(shard_window((50, 500, 450)), 1_000,
                                      tenant_id="bob")
        assert action == "replan"
        assert balancer.plan.pairs == greedy_plan(
            balancer, balancer.last_histogram).pairs

    def test_reshaped_fleet_plans_afresh_on_its_new_shards(self):
        controller, balancer, metrics = make_controller(
            cost=100, hysteresis_windows=0)
        controller.on_window(shard_window((900, 50, 50)), 1_000)
        balancer.reconfigure(8)
        assert balancer.plan is None
        action = controller.on_window(
            shard_window((500, 50, 50, 50, 50, 300), primaries=6), 1_000)
        # The old shape's histogram is dropped, not summed into the new.
        assert action == "plan"
        assert len(balancer.last_histogram) == balancer.primaries == 6
        assert balancer.plan.pairs == greedy_plan(
            balancer, balancer.last_histogram).pairs
        assert metrics.control["reschedule_stall_cycles"] == 0

    def test_plan_ages_count_the_windows_each_plan_served(self):
        controller, _, metrics = make_controller(
            cost=100, hysteresis_windows=0)
        a, c, b = (840, 660, 500), (200, 200, 1600), (660, 840, 500)
        actions = [controller.on_window(shard_window(counts), sum(counts))
                   for counts in (a, a, a, c, c, b)]
        assert actions == ["plan", "steady", "steady",
                           "replan", "steady", "replan"]
        assert list(metrics.plan_ages) == [3, 2]

    def test_single_tenant_replans_match_the_reflexive_plans(self):
        # The reflexive policy plans every window's own sample; on one
        # tenant the adaptive replans pick the very same plans.
        adaptive, adaptive_balancer, _ = make_controller(
            cost=100, hysteresis_windows=0)
        reflexive, reflexive_balancer, _ = make_controller(reflexive=True)
        replans = 0
        for keys in drifting_windows(8, adaptive_balancer.primaries):
            action = adaptive.on_window(keys, WINDOW_TUPLES)
            reflexive.on_window(keys, WINDOW_TUPLES)
            if action in ("plan", "replan"):
                replans += action == "replan"
                assert adaptive_balancer.plan.pairs \
                    == reflexive_balancer.plan.pairs
        assert replans >= 1


def greedy_plan(balancer, histogram):
    return greedy_secpe_plan(histogram, balancer.secondaries,
                             balancer.primaries)


class TestReflexivePolicy:
    """``ControlPolicy(reflexive=True)``: each window adopts the greedy
    plan of its own sample, and nothing else of the loop runs."""

    def test_each_window_adopts_its_own_samples_greedy_plan(self):
        controller, balancer, metrics = make_controller(cost=700,
                                                        reflexive=True)
        twin = SkewAwareBalancer(4)
        tenants = ("alpha", "beta")
        for index, keys in enumerate(drifting_windows(6, 3)):
            tenant = tenants[index % 2]
            controller.on_window(keys, WINDOW_TUPLES, tenant_id=tenant)
            # Not the tenant-merged histogram: this window's alone.
            twin.observe(keys)
            assert np.array_equal(balancer.last_histogram,
                                  twin.last_histogram)
            assert balancer.plan.pairs == greedy_secpe_plan(
                twin.last_histogram, twin.secondaries,
                twin.primaries).pairs
        assert balancer.rebalances >= 3
        assert metrics.rebalances == balancer.rebalances
        # Only the stall counter moves, one cost per plan change, each
        # charged to the tenant whose window changed the plan.
        assert {name: count for name, count in metrics.control.items()
                if count} == {"reschedule_stall_cycles":
                              700 * balancer.rebalances}
        assert sum(metrics.tenants[tenant]["stall_cycles"]
                   for tenant in tenants) == 700 * balancer.rebalances

    def test_emits_no_control_event(self):
        balancer = SkewAwareBalancer(4)
        metrics = ServiceMetrics()
        tracer = TraceCollector(enabled=True)
        sink = tracer.add_sink(MemorySink())
        controller = AdaptiveController(
            balancer, None, metrics, policy=ControlPolicy(reflexive=True),
            cost=500, tracer=tracer)
        for keys in drifting_windows(4, 3):
            controller.on_window(keys, WINDOW_TUPLES)
        assert balancer.rebalances >= 2
        assert sink.events == []

    def test_service_defaults_to_it_on_any_fleet(self):
        for name in ("skew", "roundrobin"):
            svc = StreamService(workers=4, balancer=name)
            assert svc.controller.policy.reflexive
            stream = EvolvingZipfStream(alpha=2.0,
                                        interval_tuples=WINDOW_TUPLES,
                                        total_tuples=10_000, base_seed=3)
            job_id = svc.submit("histo", arrival_stream(stream),
                                window_seconds=WINDOW)
            svc.run()
            assert svc.poll(job_id)["status"] == "completed"
            assert svc.controller.windows == svc.metrics.windows_closed
            assert (svc.metrics.rebalances == 0) == (name == "roundrobin")
            svc.shutdown()


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
            cost=100, hysteresis_windows=1)
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

    def test_describe_mentions_slo(self):
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
        svc = StreamService(workers=4, adaptive=True,
                            reschedule_cost_cycles=10_000)
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
        svc = StreamService(workers=2, adaptive=True, slo=0.04,
                            reschedule_cost_cycles=1_000)
        svc.controller.policy = replace(
            svc.controller.policy, autoscale_every=2, scale_cooldown=0,
            max_workers=6)
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
        svc = StreamService(workers=4, adaptive=True, slo=10.0,
                            reschedule_cost_cycles=1_000)
        svc.controller.policy = replace(
            svc.controller.policy, autoscale_every=2, scale_cooldown=0,
            min_workers=2, shrink_margin=0.9)
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
        assert svc.controller.cost == 0
        svc_default = StreamService(workers=4, adaptive=True)
        assert svc_default.controller.cost \
            == svc_default.config.reschedule_cost_cycles() > 0

    def test_cost_is_resolved_once_into_the_controller(self):
        adaptive = StreamService(workers=4, adaptive=True)
        assert adaptive.dispatcher.controller is adaptive.controller
        assert not hasattr(adaptive.dispatcher, "reschedule_cost_cycles")
        assert StreamService(workers=4).controller.cost == 0
        assert StreamService(
            workers=4, reschedule_cost_cycles=7).controller.cost == 7

    def test_policy_is_read_at_decision_time(self):
        """Retuning ``controller.policy`` before ``run()`` changes that
        run's decisions: no copy of a tunable outlives the policy."""
        def replans(**tunables):
            stream = EvolvingZipfStream(alpha=2.0, interval_tuples=8_000,
                                        total_tuples=48_000,
                                        base_seed=11, seed_cycle=3)
            svc = StreamService(workers=4, adaptive=True,
                                reschedule_cost_cycles=500)
            svc.controller.policy = replace(svc.controller.policy,
                                            **tunables)
            svc.submit("histo", arrival_stream(stream),
                       window_seconds=WINDOW)
            svc.run()
            svc.shutdown()
            return svc.metrics.control["replans_applied"]

        assert replans() >= 3
        assert replans(hysteresis_windows=1_000) == 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StreamService(workers=4, reschedule_cost_cycles=-1)

    def test_freeze_does_not_leak_into_the_next_job(self):
        """A burst-absorption freeze is a per-workload verdict; the next
        job must get a live control loop again."""
        svc = StreamService(workers=4, adaptive=True,
                            reschedule_cost_cycles=100)
        svc.controller.policy = replace(svc.controller.policy,
                                        burst_tuples=WINDOW_TUPLES * 10)
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
        svc = StreamService(workers=4, adaptive=True,
                            reschedule_cost_cycles=5_000)
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
