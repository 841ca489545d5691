"""Regressions for the serving-layer correctness fixes.

Covers the dispatcher rotation-pointer fix (no job skipped or
double-stepped when a sibling finishes mid-rotation), the balancer's
plan-change count in the metrics (pushed per window, failure path
included), bounded job retention with purge()/TTL, and
the duplicate-job-id guard on the now thread-safe submit path, and
reclamation of a shut-down service by reference count alone.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.control import AdaptiveController, ControlPolicy
from repro.service import (
    Dispatcher,
    JobQueue,
    ServiceMetrics,
    SessionSpec,
    SkewAwareBalancer,
    StreamService,
    WorkerPool,
    shard_of_keys,
)
from repro.service.jobs import Job, TenantSpec
from repro.workloads.streams import chunk_stream, timestamp_batch
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

WINDOW = 2.56e-6


def zipf_source(tuples=2_000, seed=0, alpha=1.5, chunk=1_000):
    return chunk_stream(
        ZipfGenerator(alpha=alpha, seed=seed).generate(tuples), chunk)


def run_one(service, **submit_kwargs):
    job_id = service.submit("histo", zipf_source(**submit_kwargs),
                            window_seconds=WINDOW)
    service.run()
    return job_id


def standalone_dispatcher(config, tenants=None):
    """A Dispatcher wired from its parts — no StreamService."""
    metrics = ServiceMetrics()
    spec = SessionSpec(app="histo", config=config)
    pool = WorkerPool(1, lambda job_id: spec.build(), metrics)
    balancer = SkewAwareBalancer(1)
    controller = AdaptiveController(balancer, pool, metrics,
                                    policy=ControlPolicy(reflexive=True))
    return Dispatcher(JobQueue(), balancer, pool, metrics, controller,
                      tenants=tenants)


class TestRotationFairness:
    """Drive a bare Dispatcher over scripted sources through step()."""

    def drive(self, dispatcher, batches):
        """Serve jobs A,B,C... whose sources hold ``batches[name]``
        chunks (a job leaves on the pull that finds its source empty).
        Returns the order sources were pulled in and every Step."""
        order = []

        def scripted(name):
            for _ in range(batches[name]):
                order.append(name)
                yield timestamp_batch(TupleBatch.from_keys(
                    np.arange(4, dtype=np.uint64)))
            order.append(name)

        dispatcher.start()
        for name in batches:
            dispatcher.queue.submit(
                Job(app="histo", source=scripted(name), job_id=name))
        steps = []
        while len(steps) < 50:  # safety against livelock regressions
            steps.append(dispatcher.step())
            if steps[-1].idle:
                break
        return order, steps

    def test_finish_with_wrapped_pointer_does_not_skip_successor(
            self, small_config):
        """Seed bug: with a persisted rotation pointer beyond the list
        length, removing the finished job shifted indices under it and
        the *next* job in the rotation was skipped."""
        dispatcher = standalone_dispatcher(
            small_config,
            {"default": TenantSpec("default", max_in_flight=3)})
        # Weight 1 => one step per round; pointer reaches 3 (== len)
        # after the first full rotation, then A finishes on step 3.
        order, steps = self.drive(dispatcher, {"A": 1, "B": 1, "C": 1})
        # Steps 0-2 rotate A,B,C; step 3 serves A (wrapped pointer) and
        # finishes it; the very next step MUST serve B, not C.
        assert order == ["A", "B", "C", "A", "B", "C"]
        assert steps[0] == (3, [], 1, 0, 3)
        assert [[job.job_id for job in step.finished] for step in steps] \
            == [[], [], [], ["A"], ["B"], ["C"], []]
        assert [step.in_flight for step in steps] == [3, 3, 3, 2, 1, 0, 0]
        assert all(job.status.value == "completed"
                   for step in steps for job in step.finished)

    def test_mid_round_finish_steps_every_survivor_once(self, small_config):
        """Weight 3 grants three steps per round: when the first job
        finishes on its step, the remaining two must each get exactly
        one step in the same round (no skip, no double-step)."""
        dispatcher = standalone_dispatcher(
            small_config,
            {"default": TenantSpec("default", weight=3.0,
                                   max_in_flight=3)})
        order, steps = self.drive(dispatcher, {"A": 0, "B": 1, "C": 1})
        # Round 1: A finishes, then B and C each step once.
        assert order[:3] == ["A", "B", "C"]
        # Round 2: B and C again (B finishes on its step, C after).
        assert order[3:] == ["B", "C"]
        assert [step.pulled for step in steps] == [3, 2, 0]

    def test_unready_source_is_passed_over_not_pulled(self, small_config):
        """A source whose poll_ready() says "would block" costs the
        round a wait, never a pull; the step after it turns ready
        serves it."""

        class Gated:
            ready = False

            def __init__(self):
                self.batches = iter([timestamp_batch(TupleBatch.from_keys(
                    np.arange(4, dtype=np.uint64)))])

            def __iter__(self):
                return self

            def __next__(self):
                return next(self.batches)

            def poll_ready(self):
                return self.ready

        dispatcher = standalone_dispatcher(small_config)
        source = Gated()
        dispatcher.start()
        dispatcher.queue.submit(
            Job(app="histo", source=source, job_id="net"))
        assert dispatcher.step() == (1, [], 0, 1, 1)
        assert dispatcher.step() == (0, [], 0, 1, 1)
        source.ready = True
        assert dispatcher.step() == (0, [], 1, 0, 1)
        (done,) = dispatcher.step().finished
        assert done.job_id == "net" and done.result.sum() == 4
        assert dispatcher.step().idle


class TestRebalanceSyncOnFailure:
    def test_failed_job_still_syncs_rebalances(self):
        """A job that triggers replans and then dies must leave
        ``metrics.rebalances`` equal to the balancer's counter."""
        service = StreamService(workers=4)
        primaries = service.balancer.primaries

        def shard(key):
            return shard_of_keys(np.array([key], dtype=np.uint64),
                                 primaries)[0]

        other = next(k for k in range(1, 10_000) if shard(k) != shard(0))

        def moving_hot_then_crash():
            clock = 0.0
            for key in (0, other, other):
                keys = np.full(4_000, key, dtype=np.uint64)
                yield timestamp_batch(TupleBatch.from_keys(keys),
                                      start=clock)
                clock += WINDOW
            raise RuntimeError("source died")

        job_id = service.submit("histo", moving_hot_then_crash(),
                                window_seconds=WINDOW)
        service.run()
        assert service.poll(job_id)["status"] == "failed"
        assert service.balancer.rebalances >= 1  # the plan did move
        assert service.metrics.rebalances == service.balancer.rebalances
        service.shutdown()

    def test_metrics_follow_the_balancer_mid_job(self):
        """Seed bug: the count was copied only when a job left the
        fleet, so a scrape during a long job read 0 whatever the
        balancer had done."""
        service = StreamService(workers=4)
        job_id = service.submit(
            "histo", zipf_source(tuples=40_000, alpha=0.0, chunk=4_000),
            window_seconds=WINDOW)
        service.dispatcher.start()
        seen_mid_job = []
        while not service.step().idle:
            assert service.metrics.snapshot()["rebalances"] \
                == service.balancer.rebalances
            if service.poll(job_id)["status"] == "running":
                seen_mid_job.append(service.balancer.rebalances)
        assert seen_mid_job and seen_mid_job[-1] >= 1  # not vacuous
        assert service.poll(job_id)["status"] == "completed"
        service.shutdown()


class TestJobRetention:
    def test_unbounded_by_default(self):
        service = StreamService(workers=1)
        jobs = [run_one(service, seed=seed) for seed in range(3)]
        for job_id in jobs:
            assert service.poll(job_id)["status"] == "completed"
        service.shutdown()

    def test_bounded_retention_evicts_oldest_terminal(self):
        service = StreamService(workers=1, retained_jobs=2)
        jobs = [run_one(service, seed=seed) for seed in range(4)]
        for stale in jobs[:2]:
            with pytest.raises(KeyError):
                service.poll(stale)
        for kept in jobs[2:]:
            assert service.poll(kept)["status"] == "completed"
        service.shutdown()

    def test_queued_jobs_are_never_evicted(self):
        service = StreamService(workers=1, retained_jobs=1)
        done = run_one(service, seed=0)
        queued = [service.submit("histo", zipf_source(seed=s),
                                 window_seconds=WINDOW)
                  for s in range(3)]
        for job_id in queued:  # pending, untouched by the bound
            assert service.poll(job_id)["status"] == "pending"
        assert service.poll(done)["status"] == "completed"
        service.run()
        # Now terminal: only the newest survives the bound of 1.
        assert service.poll(queued[-1])["status"] == "completed"
        with pytest.raises(KeyError):
            service.poll(queued[0])
        service.shutdown()

    def test_purge_keep_and_return_count(self):
        service = StreamService(workers=1)
        jobs = [run_one(service, seed=seed) for seed in range(3)]
        assert service.purge(keep=1) == 2
        assert service.poll(jobs[-1])["status"] == "completed"
        for stale in jobs[:2]:
            with pytest.raises(KeyError):
                service.poll(stale)
        assert service.purge() == 1
        service.shutdown()

    def test_purge_ttl_uses_dispatch_clock(self):
        service = StreamService(workers=1)
        old = run_one(service, seed=0)
        young = run_one(service, seed=1)
        # `old` finished one job's worth of dispatched tuples ago;
        # `young` finished at the current clock reading.
        assert service.purge(older_than=1) == 1
        with pytest.raises(KeyError):
            service.poll(old)
        assert service.poll(young)["status"] == "completed"
        service.shutdown()

    def test_purge_keep_beyond_held_count_drops_nothing(self):
        service = StreamService(workers=1)
        jobs = [run_one(service, seed=seed) for seed in range(3)]
        assert service.purge(keep=5) == 0
        for job_id in jobs:
            assert service.poll(job_id)["status"] == "completed"
        service.shutdown()

    def test_purge_validates_arguments(self):
        service = StreamService(workers=1)
        with pytest.raises(ValueError):
            service.purge(older_than=-1)
        with pytest.raises(ValueError):
            service.purge(keep=-1)
        service.shutdown()

    def test_retained_jobs_validated(self):
        with pytest.raises(ValueError):
            StreamService(workers=1, retained_jobs=0)


class TestDuplicateJobIds:
    def test_live_duplicate_rejected_terminal_reusable(self):
        service = StreamService(workers=1)
        service.submit("histo", zipf_source(seed=0),
                       window_seconds=WINDOW, job_id="mine")
        with pytest.raises(ValueError, match="duplicate"):
            service.submit("histo", zipf_source(seed=1),
                           window_seconds=WINDOW, job_id="mine")
        service.run()
        assert service.poll("mine")["status"] == "completed"
        # Terminal ids may be reused (the resubmit contract).
        service.submit("histo", zipf_source(seed=2),
                       window_seconds=WINDOW, job_id="mine")
        service.run()
        assert service.poll("mine")["status"] == "completed"
        service.shutdown()


class TestDroppedServiceIsFreedByRefcount:
    """Regression: the backend held a bound method of its own service
    (the spec factory), a reference cycle — so a dropped service kept
    its job registry and every result alive until the cyclic collector
    got round to a full pass."""

    @pytest.mark.parametrize("service_kw", [
        {},
        {"adaptive": True},
        {"backend": "process", "transport": "shm"},
    ], ids=["inline", "adaptive", "process-shm"])
    def test_shutdown_service_dies_with_the_cyclic_gc_off(self,
                                                          service_kw):
        gc.disable()
        try:
            service = StreamService(workers=2, **service_kw)
            job_id = run_one(service)
            assert service.poll(job_id)["status"] == "completed"
            service.shutdown()
            alive = weakref.ref(service)
            del service
            assert alive() is None
        finally:
            gc.enable()
