"""Regressions for the serving-layer correctness fixes.

Covers the dispatcher rotation-pointer fix (no job skipped or
double-stepped when a sibling finishes mid-rotation), balancer-counter
sync on the failure path, bounded job retention with purge()/TTL, and
the duplicate-job-id guard on the now thread-safe submit path, and
reclamation of a shut-down service by reference count alone.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.service import StreamService, shard_of_keys
from repro.service.jobs import Job
from repro.service.server import _ActiveJob
from repro.service.windows import WindowManager
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


class TestRotationFairness:
    """White-box: drive _step_round with a scripted _step_job."""

    def drive(self, service, names, finish_at):
        """Step jobs A,B,C... one round at a time; ``finish_at`` maps a
        global step index to True (that job leaves the fleet).  Returns
        the order jobs were stepped in."""
        order = []

        def scripted_step(entry):
            order.append(entry.job.job_id)
            return finish_at.get(len(order) - 1, False)

        service._step_job = scripted_step
        active = [
            _ActiveJob(job=Job(app="histo", source=[], job_id=name),
                       windows=WindowManager(WINDOW),
                       source=iter(()), by_key=False)
            for name in names
        ]
        while active:
            for entry in service._step_round(active):
                active.remove(entry)
            if len(order) > 50:  # safety against livelock regressions
                break
        return order

    def test_finish_with_wrapped_pointer_does_not_skip_successor(self):
        """Seed bug: with a persisted rotation pointer beyond the list
        length, removing the finished job shifted indices under it and
        the *next* job in the rotation was skipped."""
        service = StreamService(workers=1)
        # Weight 1 => one step per round; pointer reaches 3 (== len)
        # after the first full rotation, then A finishes on step 3.
        order = self.drive(service, ["A", "B", "C"],
                           finish_at={3: True, 4: True, 5: True})
        # Steps 0-2 rotate A,B,C; step 3 serves A (wrapped pointer) and
        # finishes it; the very next step MUST serve B, not C.
        assert order == ["A", "B", "C", "A", "B", "C"]
        service.shutdown()

    def test_mid_round_finish_steps_every_survivor_once(self):
        """Weight 3 grants three steps per round: when the first job
        finishes on its step, the remaining two must each get exactly
        one step in the same round (no skip, no double-step)."""
        from repro.service.jobs import TenantSpec

        service = StreamService(workers=1)
        service.register_tenant(TenantSpec("default", weight=3.0,
                                           max_in_flight=3))
        order = self.drive(
            service, ["A", "B", "C"],
            finish_at={0: True, 3: True, 4: True})
        # Round 1: A finishes, then B and C each step once.
        assert order[:3] == ["A", "B", "C"]
        # Round 2: B and C again (B finishes on its step, C after).
        assert order[3:] == ["B", "C"]
        service.shutdown()


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
