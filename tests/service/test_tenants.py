"""Multi-tenant scheduling: WFQ queue, admission control, tenant metrics.

The weighted-fair queue, the concurrent dispatcher, the per-tenant
metrics and the admission quotas are exercised here; the strict
single-tenant behaviour they must not disturb is pinned by the
pre-existing suites (``test_queue.py``, ``test_service.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import StreamService
from repro.service.jobs import (
    DEFAULT_TENANT,
    Job,
    JobStatus,
    QuotaExceededError,
    TenantSpec,
    kernel_for,
)
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobQueue
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator

WINDOW = 2e-6


def make_job(**kwargs):
    kwargs.setdefault("app", "histo")
    kwargs.setdefault("source", [])
    return Job(**kwargs)


def zipf_source(tuples=6_000, seed=5, chunk=2_000, alpha=1.5):
    return chunk_stream(
        ZipfGenerator(alpha=alpha, seed=seed).generate(tuples), chunk)


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("acme")
        assert spec.weight == 1.0
        assert spec.max_in_flight == 1
        assert spec.slo_delay_tuples is None

    @pytest.mark.parametrize("kwargs", [
        {"weight": 0.0},
        {"weight": -1.0},
        {"slo_delay_tuples": -1},
        {"max_in_flight": 0},
        {"max_queued": 0},
        {"weight": float("nan")},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec("acme", **kwargs)

    def test_empty_tenant_id_rejected(self):
        with pytest.raises(ValueError, match="tenant_id"):
            TenantSpec("")
        with pytest.raises(ValueError, match="tenant_id"):
            make_job(tenant_id="")


class TestWeightedFairQueue:
    def fill(self, queue, tenant, count, **kwargs):
        jobs = [make_job(tenant_id=tenant, **kwargs) for _ in range(count)]
        for job in jobs:
            queue.submit(job)
        return jobs

    def test_backlogged_tenants_share_by_weight(self):
        queue = JobQueue()
        queue.register_tenant(TenantSpec("gold", weight=3.0))
        queue.register_tenant(TenantSpec("bronze", weight=1.0))
        self.fill(queue, "gold", 30)
        self.fill(queue, "bronze", 30)
        popped = [queue.pop().tenant_id for _ in range(20)]
        assert popped.count("gold") == 15
        assert popped.count("bronze") == 5

    def test_priority_cannot_cross_tenants(self):
        """A tenant flooding priority-9 jobs cannot push another
        tenant's priority-0 job back beyond its fair share."""
        queue = JobQueue()
        self.fill(queue, "noisy", 20, priority=9)
        victim = make_job(tenant_id="quiet", priority=0)
        queue.submit(victim)
        popped = [queue.pop() for _ in range(3)]
        assert victim in popped

    def test_priority_still_orders_within_a_tenant(self):
        queue = JobQueue()
        low = make_job(tenant_id="acme", priority=0)
        high = make_job(tenant_id="acme", priority=5)
        queue.submit(low)
        queue.submit(high)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_idle_tenant_does_not_bank_credit(self):
        """A tenant that was idle while another drained 50 pops comes
        back to its *fair share*, not to 50 pops of saved-up credit."""
        queue = JobQueue()
        self.fill(queue, "busy", 60)
        for _ in range(50):
            assert queue.pop().tenant_id == "busy"
        self.fill(queue, "latecomer", 10)
        popped = [queue.pop().tenant_id for _ in range(10)]
        assert popped.count("latecomer") == 5
        assert popped.count("busy") == 5

    def test_blocked_tenants_are_skipped_not_drained(self):
        queue = JobQueue()
        gold = self.fill(queue, "gold", 2)
        bronze = self.fill(queue, "bronze", 2)
        assert queue.pop(blocked={"gold"}) is bronze[0]
        assert queue.pop(blocked={"bronze"}) is gold[0]
        assert queue.tenant_depth("gold") == 1
        assert queue.tenant_depth("bronze") == 1

    def test_all_tenants_blocked_returns_none(self):
        queue = JobQueue()
        self.fill(queue, "gold", 1)
        assert queue.pop(blocked={"gold"}) is None
        assert queue.depth() == 1

    def test_depth_counter_tracks_submit_cancel_pop(self):
        queue = JobQueue()
        jobs = [make_job(tenant_id=f"t{i % 3}") for i in range(9)]
        for job in jobs:
            queue.submit(job)
        assert queue.depth() == 9
        queue.cancel(jobs[0].job_id)
        queue.cancel(jobs[4].job_id)
        assert queue.depth() == 7
        seen = []
        while True:
            job = queue.pop()
            if job is None:
                break
            seen.append(job)
        assert len(seen) == 7
        assert queue.depth() == 0
        assert jobs[0] not in seen and jobs[4] not in seen

    def test_register_tenant_updates_live_weight(self):
        queue = JobQueue()
        self.fill(queue, "a", 20)
        self.fill(queue, "b", 20)
        queue.register_tenant(TenantSpec("a", weight=4.0))
        popped = [queue.pop().tenant_id for _ in range(10)]
        assert popped.count("a") == 8


class TestAgePromotion:
    def test_flooded_low_priority_job_is_eventually_served(self):
        """A continuously replenished priority-9 class must not hold a
        priority-0 job of the same tenant back past the promotion
        horizon."""
        queue = JobQueue(promote_after=16)
        victim = make_job(priority=0)
        queue.submit(victim)
        for _ in range(4):
            queue.submit(make_job(priority=9))
        served_within = None
        for pops in range(1, 64):
            # The flooding submitter keeps the high class replenished.
            queue.submit(make_job(priority=9))
            job = queue.pop()
            if job is victim:
                served_within = pops
                break
        assert served_within is not None, "victim starved"
        assert served_within <= 16 + 1

    def test_promotion_disabled_starves_under_strict_order(self):
        queue = JobQueue(promote_after=None)
        victim = make_job(priority=0)
        queue.submit(victim)
        for _ in range(4):
            queue.submit(make_job(priority=9))
        for _ in range(40):
            queue.submit(make_job(priority=9))
            assert queue.pop() is not victim

    def test_promotion_applies_in_strict_mode_too(self):
        queue = JobQueue(promote_after=8)
        victim = make_job(priority=0)
        queue.submit(victim)
        popped = []
        for _ in range(12):
            queue.submit(make_job(priority=9))
            popped.append(queue.pop())
        assert victim in popped

    def test_promote_after_validation(self):
        with pytest.raises(ValueError, match="promote_after"):
            JobQueue(promote_after=0)


class TestWfqSharesProperty:
    @given(
        weights=st.lists(
            st.floats(min_value=0.25, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
            min_size=2, max_size=4),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_shares_converge_to_weights(self, weights):
        """For any weight vector, pop counts over a horizon where every
        tenant stays backlogged track weight shares within one pop per
        *competing* tenant (SFQ's pairwise unfairness bound for unit
        jobs, summed over the other flows)."""
        queue = JobQueue()
        horizon = 64
        for index, weight in enumerate(weights):
            queue.register_tenant(TenantSpec(f"t{index}", weight=weight))
            for _ in range(horizon):
                queue.submit(make_job(tenant_id=f"t{index}"))
        counts = {f"t{index}": 0 for index in range(len(weights))}
        for _ in range(horizon):
            counts[queue.pop().tenant_id] += 1
        total_weight = sum(weights)
        bound = len(weights) + 1e-6
        for index, weight in enumerate(weights):
            expected = horizon * weight / total_weight
            assert abs(counts[f"t{index}"] - expected) <= bound, (
                weights, counts)


@pytest.fixture
def two_tenant_service():
    svc = StreamService(workers=4, balancer="skew")
    svc.register_tenant(TenantSpec("gold", weight=3.0,
                                   slo_delay_tuples=20_000))
    svc.register_tenant(TenantSpec("bronze", weight=1.0))
    yield svc
    svc.shutdown()


class TestTenantService:
    def test_results_stay_golden_under_interleaving(self,
                                                    two_tenant_service):
        svc = two_tenant_service
        batches = {
            "gold": ZipfGenerator(alpha=1.5, seed=7).generate(6_000),
            "bronze": ZipfGenerator(alpha=1.5, seed=8).generate(6_000),
        }
        ids = {
            tenant: svc.submit("histo", chunk_stream(batch, 2_000),
                               window_seconds=WINDOW, tenant_id=tenant)
            for tenant, batch in batches.items()
        }
        assert svc.run() == 2
        for tenant, job_id in ids.items():
            result = svc.result(job_id)
            golden = kernel_for("histo", 16).golden(
                batches[tenant].keys, batches[tenant].values)
            assert np.array_equal(result.result, golden)
            assert result.tenant_id == tenant

    def test_unregistered_tenant_gets_default_contract(self):
        svc = StreamService(workers=2, balancer="skew")
        job_id = svc.submit("histo", zipf_source(tuples=2_000),
                            window_seconds=WINDOW, tenant_id="walk-in")
        svc.run()
        svc.shutdown()
        assert svc.poll(job_id)["status"] == "completed"
        assert svc.poll(job_id)["tenant"] == "walk-in"
        assert svc.metrics.snapshot()["tenants"]["walk-in"][
            "jobs"]["completed"] == 1

    def test_default_submit_stays_default_tenant(self):
        svc = StreamService(workers=2, balancer="skew")
        job_id = svc.submit("histo", zipf_source(tuples=2_000),
                            window_seconds=WINDOW)
        svc.run()
        svc.shutdown()
        assert svc.result(job_id).tenant_id == DEFAULT_TENANT

    def test_queue_enforces_quota_atomically_under_its_lock(self):
        """The quota check lives inside JobQueue.submit (one lock with
        the enqueue), so concurrent ingest threads cannot both squeeze
        past the last slot."""
        queue = JobQueue()
        queue.register_tenant(TenantSpec("capped", max_queued=1))
        queue.submit(make_job(tenant_id="capped"))
        with pytest.raises(QuotaExceededError, match="capped"):
            queue.submit(make_job(tenant_id="capped"))
        assert queue.tenant_depth("capped") == 1

    def test_max_queued_quota_rejects_submit(self):
        svc = StreamService(workers=2, balancer="skew")
        svc.register_tenant(TenantSpec("capped", max_queued=2))
        for _ in range(2):
            svc.submit("histo", zipf_source(tuples=1_000),
                       window_seconds=WINDOW, tenant_id="capped")
        with pytest.raises(QuotaExceededError, match="capped"):
            svc.submit("histo", zipf_source(tuples=1_000),
                       window_seconds=WINDOW, tenant_id="capped")
        snap = svc.metrics.snapshot()["tenants"]["capped"]
        assert snap["jobs"]["rejected"] == 1
        assert snap["jobs"]["submitted"] == 2
        svc.run()
        svc.shutdown()

    def test_max_in_flight_admits_concurrently(self):
        """With max_in_flight=2 the tenant's two jobs interleave: both
        are RUNNING before either completes (observable via a source
        that checks the sibling's status mid-stream)."""
        svc = StreamService(workers=2, balancer="skew")
        svc.register_tenant(TenantSpec("wide", max_in_flight=2))
        observed = []

        def probing_source(other_id):
            def generate():
                for events in zipf_source(tuples=4_000):
                    if other_id:
                        observed.append(
                            svc.poll(other_id[0])["status"])
                    yield events
            return generate()

        first_box = []
        first = svc.submit("histo", probing_source([]),
                           window_seconds=WINDOW, tenant_id="wide")
        first_box.append(first)
        svc.submit("histo", probing_source(first_box),
                   window_seconds=WINDOW, tenant_id="wide")
        svc.run()
        svc.shutdown()
        assert "running" in observed

    def test_tenant_fans_out_over_the_whole_fleet(self):
        # No tenant is narrowed to part of the fleet: an even stream's
        # shards reach every worker, one lane each.
        svc = StreamService(workers=4, balancer="skew")
        svc.register_tenant(TenantSpec("wide"))
        batch = ZipfGenerator(alpha=0.0, seed=3).generate(4_000)
        job_id = svc.submit("histo", chunk_stream(batch, 2_000),
                            window_seconds=WINDOW, tenant_id="wide")
        svc.run()
        svc.shutdown()
        golden = kernel_for("histo", 16).golden(batch.keys, batch.values)
        assert np.array_equal(svc.result(job_id).result, golden)
        workers = svc.metrics.snapshot()["workers"]
        busy = {worker for worker, stats in workers.items()
                if stats["tuples"] > 0}
        assert busy == {0, 1, 2, 3}

    def test_poll_reports_queue_delay(self, two_tenant_service):
        svc = two_tenant_service
        first = svc.submit("histo", zipf_source(tuples=4_000),
                           window_seconds=WINDOW, tenant_id="gold")
        second = svc.submit("histo", zipf_source(tuples=4_000, seed=9),
                            window_seconds=WINDOW, tenant_id="gold")
        svc.run()
        assert svc.poll(first)["queue_delay"] == 0
        # The second gold job (in-flight cap 1) waited for the first.
        assert svc.poll(second)["queue_delay"] >= 4_000


class TestTenantMetrics:
    def test_snapshot_breaks_out_tenants(self, two_tenant_service):
        svc = two_tenant_service
        svc.submit("histo", zipf_source(), window_seconds=WINDOW,
                   tenant_id="gold")
        svc.submit("histo", zipf_source(seed=6), window_seconds=WINDOW,
                   tenant_id="bronze")
        svc.run()
        tenants = svc.metrics.snapshot()["tenants"]
        assert set(tenants) >= {"gold", "bronze"}
        for name in ("gold", "bronze"):
            assert tenants[name]["tuples"] == 6_000
            assert tenants[name]["cycles"] > 0
            assert tenants[name]["jobs"]["completed"] == 1
            assert tenants[name]["queue_delay"]["samples"] == 1
        assert tenants["gold"]["weight"] == 3.0
        assert tenants["gold"]["slo_delay_tuples"] == 20_000

    def test_tenant_tuples_sum_to_fleet_tuples(self, two_tenant_service):
        svc = two_tenant_service
        svc.submit("histo", zipf_source(), window_seconds=WINDOW,
                   tenant_id="gold")
        svc.submit("hll", zipf_source(seed=6), window_seconds=WINDOW,
                   tenant_id="bronze")
        svc.run()
        snap = svc.metrics.snapshot()
        per_tenant = sum(entry["tuples"]
                         for entry in snap["tenants"].values())
        assert per_tenant == snap["total_tuples"]

    def test_slo_attainment_math(self):
        metrics = ServiceMetrics()
        metrics.register_tenant("acme", weight=2.0, slo_delay_tuples=100)
        for delay in (0, 50, 100, 101, 500):
            metrics.record_queue_delay("acme", delay)
        assert metrics.tenant_slo_attainment() == {
            "acme": pytest.approx(0.6)}
        snap = metrics.snapshot()["tenants"]["acme"]
        assert snap["slo_attainment"] == pytest.approx(3 / 5)
        assert snap["queue_delay"]["samples"] == 5
        assert snap["queue_delay"]["peak"] == 500

    def test_no_slo_means_no_attainment_entry(self):
        metrics = ServiceMetrics()
        metrics.record_queue_delay("acme", 10)
        assert metrics.tenant_slo_attainment() == {}
        assert metrics.snapshot()["tenants"]["acme"][
            "slo_attainment"] == 1.0

    def test_stall_attribution(self):
        metrics = ServiceMetrics()
        metrics.record_control(reschedule_stall_cycles=500, tenant="noisy")
        metrics.record_control(reschedule_stall_cycles=250)
        snap = metrics.snapshot()
        assert snap["control"]["reschedule_stall_cycles"] == 750
        assert snap["tenants"]["noisy"]["stall_cycles"] == 500

    def test_render_shows_tenant_table(self, two_tenant_service):
        svc = two_tenant_service
        svc.submit("histo", zipf_source(tuples=2_000),
                   window_seconds=WINDOW, tenant_id="gold")
        svc.run()
        text = svc.metrics.render()
        assert "Per-tenant serving record" in text
        assert "gold" in text

    def test_single_default_tenant_render_stays_clean(self):
        svc = StreamService(workers=2, balancer="skew")
        svc.submit("histo", zipf_source(tuples=2_000),
                   window_seconds=WINDOW)
        svc.run()
        svc.shutdown()
        assert "Per-tenant serving record" not in svc.metrics.render()


class TestCancelledTenantAccounting:
    def test_cancel_charges_the_owning_tenant(self):
        svc = StreamService(workers=2, balancer="skew")
        job_id = svc.submit("histo", zipf_source(tuples=1_000),
                            window_seconds=WINDOW, tenant_id="flaky")
        assert svc.cancel(job_id)
        svc.shutdown()
        snap = svc.metrics.snapshot()
        assert snap["jobs"]["cancelled"] == 1
        assert snap["tenants"]["flaky"]["jobs"]["cancelled"] == 1
        job = svc._job(job_id)
        assert job.status is JobStatus.CANCELLED
