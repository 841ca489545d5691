"""Tenant-aware control plane: stall attribution and SLO-driven sizing."""


from repro.control import AdaptiveController, Autoscaler, ControlPolicy
from repro.service import ServiceMetrics, WorkerPool
from repro.service.balancer import SkewAwareBalancer
from repro.workloads.zipf import ZipfGenerator

WINDOW_TUPLES = 2_000


def make_controller(workers=4, slo=None, cost=10_000, **policy_kwargs):
    policy_kwargs.setdefault("cycles_per_tuple", 1.0)
    balancer = SkewAwareBalancer(workers)
    metrics = ServiceMetrics()
    pool = WorkerPool(workers, lambda job_id: None, metrics)
    controller = AdaptiveController(
        balancer, pool, metrics, policy=ControlPolicy(**policy_kwargs),
        cost=cost, slo=slo)
    return controller, pool, metrics


def hot_keys(seed, tuples=WINDOW_TUPLES):
    return ZipfGenerator(alpha=2.5, seed=seed).generate(tuples).keys


class TestStallAttribution:
    def test_replan_charges_the_triggering_tenant(self):
        controller, _, metrics = make_controller(
            cost=300, hysteresis_windows=1)
        # 'steady' tenant establishes the plan and holds still.
        controller.on_window(hot_keys(1), WINDOW_TUPLES,
                             tenant_id="steady")
        for _ in range(5):
            controller.on_window(hot_keys(1), WINDOW_TUPLES,
                                 tenant_id="steady")
        # 'mover' drifts after a long quiet interval: the replan it
        # triggers is charged to it, not to the steady tenant.
        action = controller.on_window(hot_keys(4), WINDOW_TUPLES,
                                      tenant_id="mover")
        assert action == "replan"
        snap = metrics.snapshot()
        assert snap["tenants"]["mover"]["stall_cycles"] == 300
        assert snap["tenants"].get("steady", {}).get("stall_cycles", 0) == 0
        assert snap["control"]["reschedule_stall_cycles"] == 300

    def test_initial_plan_charges_nobody(self):
        controller, _, metrics = make_controller()
        assert controller.on_window(hot_keys(1), WINDOW_TUPLES,
                                    tenant_id="first") == "plan"
        snap = metrics.snapshot()
        assert snap["control"]["reschedule_stall_cycles"] == 0
        assert snap["tenants"].get("first", {}).get("stall_cycles", 0) == 0


class TestMergedHistogramAcrossTenants:
    def test_interleaved_stable_tenants_settle_instead_of_thrashing(self):
        """Two concurrent tenants with very different (but individually
        stable) distributions interleave windows A,B,A,B.  Judging
        drift window-by-window would flag permanent phantom drift and
        hold a stale plan forever; planning against the merged
        histogram settles to the mixture after one replan."""
        controller, _, metrics = make_controller(hysteresis_windows=2)
        flat = ZipfGenerator(alpha=0.2, seed=3).generate(
            WINDOW_TUPLES).keys
        hot = ZipfGenerator(alpha=2.5, seed=9).generate(
            WINDOW_TUPLES).keys
        actions = []
        for _ in range(10):
            actions.append(controller.on_window(flat, WINDOW_TUPLES,
                                                tenant_id="flat"))
            actions.append(controller.on_window(hot, WINDOW_TUPLES,
                                                tenant_id="hot"))
        # One replan at most to adopt the mixture, then steady: the
        # merged load is identical window to window.
        assert metrics.control["replans_applied"] <= 1
        assert actions[-6:] == ["steady"] * 6, actions

    def test_forget_tenant_removes_its_load_share(self):
        controller, _, metrics = make_controller(hysteresis_windows=2)
        flat = ZipfGenerator(alpha=0.2, seed=3).generate(
            WINDOW_TUPLES).keys
        hot = ZipfGenerator(alpha=2.5, seed=9).generate(
            WINDOW_TUPLES).keys
        for _ in range(8):
            controller.on_window(flat, WINDOW_TUPLES, tenant_id="flat")
            controller.on_window(hot, WINDOW_TUPLES, tenant_id="hot")
        controller.forget_tenant("hot")
        # Only flat's stream remains: the merged load is flat's own
        # histogram, the plan re-settles, and the loop goes steady.
        actions = [controller.on_window(flat, WINDOW_TUPLES,
                                        tenant_id="flat")
                   for _ in range(8)]
        assert actions[-3:] == ["steady"] * 3, actions


class TestAutoscalerSloPressure:
    def test_pressure_grows_despite_meeting_cycle_slo(self):
        policy = ControlPolicy(scale_cooldown=0)
        scaler = Autoscaler(slo_cycles_per_tuple=2.0)
        # 0.5 observed cycles/tuple is comfortably under the SLO of 2 —
        # without pressure this would hold (above the shrink margin).
        relaxed = scaler.decide(policy, 1_000, 1_500, size=4)
        assert relaxed.reason == "hold"
        pressured = scaler.decide(policy, 1_000, 1_500, size=4,
                                  slo_pressure=True)
        assert pressured.reason == "grow"
        assert pressured.size == 5

    def test_pressure_blocks_shrink(self):
        policy = ControlPolicy(scale_cooldown=0, shrink_margin=0.9)
        idle = Autoscaler(2.0).decide(policy, 1_000, 100, size=4)
        assert idle.reason == "shrink"
        held = Autoscaler(2.0).decide(policy, 1_000, 100, size=4,
                                      slo_pressure=True)
        assert held.reason == "grow"

    def test_pressure_respects_max_workers(self):
        policy = ControlPolicy(max_workers=4, scale_cooldown=0)
        decision = Autoscaler(2.0).decide(policy, 1_000, 100, size=4,
                                          slo_pressure=True)
        assert decision.size == 4
        assert decision.reason != "grow"


class TestControllerConsultsAttainment:
    def test_missed_tenant_slo_forces_growth(self):
        """The fleet meets its cycles-per-tuple SLO, but a tenant's
        queue-delay SLO attainment is underwater: the controller must
        still grow the pool."""
        controller, pool, metrics = make_controller(
            workers=2, slo=100.0, autoscale_every=2, scale_cooldown=0)
        metrics.register_tenant("starved", slo_delay_tuples=10)
        for _ in range(5):
            metrics.record_queue_delay("starved", 50_000)  # all misses
        # Real traffic flowed, comfortably under the cycle SLO (0.5
        # observed cycles/tuple vs 100 allowed): without tenant
        # pressure the sizing check would hold.
        metrics.record_segment(0, tuples=2_000, cycles=1_000,
                               tenant="starved")
        size_before = pool.size
        for _ in range(2):
            controller.on_window(hot_keys(1), WINDOW_TUPLES,
                                 tenant_id="starved")
        assert pool.size == size_before + 1
        assert metrics.control["scale_up_events"] == 1

    def test_attaining_tenants_leave_sizing_to_the_cycle_slo(self):
        controller, pool, metrics = make_controller(
            workers=2, slo=100.0, autoscale_every=2, scale_cooldown=0)
        metrics.register_tenant("happy", slo_delay_tuples=1_000_000)
        for _ in range(5):
            metrics.record_queue_delay("happy", 10)  # all met
        size_before = pool.size
        for _ in range(2):
            controller.on_window(hot_keys(1), WINDOW_TUPLES,
                                 tenant_id="happy")
        # A generous 100 c/t SLO with no recorded worker cycles: no
        # growth pressure from either objective.
        assert pool.size == size_before
        assert metrics.control["scale_up_events"] == 0
