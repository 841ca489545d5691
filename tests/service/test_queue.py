"""Job model and admission queue: ordering, cancellation, validation."""

import threading
import time

import numpy as np
import pytest

from repro import wallclock
from repro.service.jobs import (
    Job,
    JobStatus,
    QuotaExceededError,
    TenantSpec,
    kernel_for,
)
from repro.service.queue import JobQueue
from repro.workloads.streams import TimestampedBatch
from repro.workloads.tuples import TupleBatch


def make_job(**kwargs):
    kwargs.setdefault("app", "histo")
    kwargs.setdefault("source", [])
    return Job(**kwargs)


class TestJobModel:
    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError, match="unknown application"):
            make_job(app="sorting")

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window_seconds"):
            make_job(window_seconds=0.0)

    def test_assigns_ids(self):
        a, b = make_job(), make_job()
        assert a.job_id != b.job_id
        assert make_job(job_id="mine").job_id == "mine"

    def test_kernel_for_builds_every_served_app(self):
        for app in ("histo", "dp", "hll", "hhd"):
            kernel = kernel_for(app, pripes=16)
            assert kernel.pripes == 16
        pagerank = kernel_for("pagerank", 16, {"num_vertices": 64})
        assert pagerank.num_vertices == 64

    def test_pagerank_requires_vertices(self):
        with pytest.raises(ValueError, match="num_vertices"):
            kernel_for("pagerank", 16)


class TestQueueOrdering:
    def test_priority_beats_fifo(self):
        queue = JobQueue()
        low = make_job(priority=0)
        high = make_job(priority=5)
        queue.submit(low)
        queue.submit(high)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_deadline_breaks_priority_ties(self):
        queue = JobQueue()
        late = make_job(priority=1, deadline=2.0)
        soon = make_job(priority=1, deadline=0.5)
        none = make_job(priority=1)  # no deadline sorts last
        queue.submit(none)
        queue.submit(late)
        queue.submit(soon)
        assert [queue.pop() for _ in range(3)] == [soon, late, none]

    def test_fifo_as_final_tiebreak(self):
        queue = JobQueue()
        first = make_job(priority=2)
        second = make_job(priority=2)
        queue.submit(first)
        queue.submit(second)
        assert queue.pop() is first

    def test_pop_empty_returns_none(self):
        assert JobQueue().pop() is None


class TestQueueLifecycle:
    def test_cancel_skips_job(self):
        queue = JobQueue()
        job = make_job()
        queue.submit(job)
        assert queue.cancel(job.job_id)
        assert job.status is JobStatus.CANCELLED
        assert queue.pop() is None
        assert queue.depth() == 0

    def test_cancel_unknown_is_false(self):
        assert not JobQueue().cancel("nope")

    def test_duplicate_ids_rejected(self):
        queue = JobQueue()
        queue.submit(make_job(job_id="dup"))
        with pytest.raises(ValueError, match="duplicate"):
            queue.submit(make_job(job_id="dup"))

    def test_depth_counts_pending_only(self):
        queue = JobQueue()
        jobs = [make_job() for _ in range(3)]
        for job in jobs:
            queue.submit(job)
        queue.cancel(jobs[1].job_id)
        assert queue.depth() == len(queue) == 2

    def test_cancelled_heap_head_is_skipped_for_the_next_job(self):
        queue = JobQueue()
        high, low = make_job(priority=5), make_job(priority=0)
        queue.submit(high)
        queue.submit(low)
        assert queue.cancel(high.job_id)
        assert queue.pop() is low
        assert queue.pop() is None

    def test_cancel_after_pop_is_false(self):
        queue = JobQueue()
        job = make_job()
        queue.submit(job)
        assert queue.pop() is job
        assert not queue.cancel(job.job_id)
        assert job.status is JobStatus.PENDING

    def test_second_cancel_is_false(self):
        queue = JobQueue()
        job = make_job()
        queue.submit(job)
        assert queue.cancel(job.job_id)
        assert not queue.cancel(job.job_id)
        assert queue.depth() == 0

    def test_tenant_depth_of_unknown_tenant_is_zero(self):
        queue = JobQueue()
        queue.submit(make_job(tenant_id="alice"))
        assert queue.tenant_depth("alice") == 1
        assert queue.tenant_depth("bob") == 0


class TestQuota:
    def test_slot_frees_on_pop_and_on_cancel(self):
        queue = JobQueue()
        queue.register_tenant(TenantSpec("capped", max_queued=1))
        first = make_job(tenant_id="capped")
        queue.submit(first)
        with pytest.raises(QuotaExceededError, match="quota 1"):
            queue.submit(make_job(tenant_id="capped"))
        assert queue.pop() is first
        second = make_job(tenant_id="capped")
        queue.submit(second)
        assert queue.cancel(second.job_id)
        queue.submit(make_job(tenant_id="capped"))
        assert queue.tenant_depth("capped") == 1

    def test_quota_binds_only_its_own_tenant(self):
        queue = JobQueue()
        queue.register_tenant(TenantSpec("capped", max_queued=1))
        queue.submit(make_job(tenant_id="capped"))
        for _ in range(3):
            queue.submit(make_job(tenant_id="free"))
        assert queue.depth() == 4


class TestPopNeverWaits:
    """``pop`` polls: it answers at once, reads no host clock and never
    sleeps, whether a job is runnable or not."""

    @pytest.fixture
    def no_host_time(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("pop read host time or waited")

        monkeypatch.setattr(wallclock, "monotonic", forbidden)
        monkeypatch.setattr(wallclock, "now", forbidden)
        monkeypatch.setattr(time, "sleep", forbidden)
        monkeypatch.setattr(threading.Condition, "wait", forbidden)

    @pytest.mark.parametrize("state",
                             ["empty", "cancelled", "blocked", "runnable"])
    def test_pop_answers_at_once(self, no_host_time, state):
        queue = JobQueue()
        job = make_job(tenant_id="alice")
        if state != "empty":
            queue.submit(job)
        if state == "cancelled":
            queue.cancel(job.job_id)
        blocked = ("alice",) if state == "blocked" else ()
        expected = job if state == "runnable" else None
        assert queue.pop(blocked=blocked) is expected
        assert queue.depth() == int(state == "blocked")

    def test_blocked_may_be_any_iterable(self):
        queue = JobQueue()
        alice, bob = make_job(tenant_id="alice"), make_job(tenant_id="bob")
        queue.submit(alice)
        queue.submit(bob)
        assert queue.pop(blocked=(t for t in ["alice"])) is bob
        assert queue.pop(blocked={"bob"}) is alice

    def test_pop_takes_no_timeout(self):
        with pytest.raises(TypeError):
            JobQueue().pop(timeout=0)

    def test_concurrent_submitters_lose_and_repeat_nothing(self):
        # Gateway threads submit while the dispatcher polls: every job
        # comes out exactly once.
        queue = JobQueue()
        batches = [[make_job(tenant_id=f"t{n % 2}") for _ in range(100)]
                   for n in range(4)]
        threads = [threading.Thread(
            target=lambda jobs=jobs: [queue.submit(job) for job in jobs])
            for jobs in batches]
        for thread in threads:
            thread.start()
        popped = []
        deadline = time.monotonic() + 30.0
        while len(popped) < 400 and time.monotonic() < deadline:
            job = queue.pop()
            if job is not None:
                popped.append(job)
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(job.job_id for job in popped) == sorted(
            job.job_id for jobs in batches for job in jobs)
        assert queue.depth() == 0 and queue.pop() is None


class TestTimestampedBatch:
    def test_shape_mismatch_rejected(self):
        batch = TupleBatch.from_keys(np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError, match="one timestamp per tuple"):
            TimestampedBatch(np.zeros(3), batch)

    def test_span(self):
        batch = TupleBatch.from_keys(np.arange(3, dtype=np.uint64))
        stamped = TimestampedBatch(np.array([0.5, 0.1, 0.9]), batch)
        assert stamped.span == (0.1, 0.9)
        assert len(stamped) == 3
