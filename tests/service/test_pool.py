"""Worker pool: one shard on one worker, resize up/down, session
survival, collection."""

import pickle

import numpy as np
import pytest

from repro.core.config import ArchitectureConfig
from repro.core.fastpath import run_fast
from repro.obs import TraceCollector
from repro.obs import events as trace_events
from repro.runtime.session import StreamingSession
from repro.service import SERVED_APPS
from repro.service.executor import SessionSpec
from repro.service.jobs import kernel_for
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkItem, WorkerPool
from repro.workloads.tuples import TupleBatch


def make_pool(workers=2, tracer=None):
    config = ArchitectureConfig(lanes=8, pripes=16, secpes=0,
                                reschedule_threshold=0.0)

    def factory(job_id):
        return StreamingSession(config=config,
                                kernel=kernel_for("histo", 16),
                                engine="fast")

    return WorkerPool(workers, factory, ServiceMetrics(),
                      tracer=tracer), factory


def batch_of(keys):
    return TupleBatch.from_keys(np.asarray(keys, dtype=np.uint64))


class TestDispatch:
    """``dispatch`` is the window pass over a route that takes the
    whole shard to one worker: the session it leaves is the one
    ``run_fast`` gives the shard alone."""

    CONFIG = ArchitectureConfig(lanes=8, pripes=16, secpes=0,
                                reschedule_threshold=0.0)

    def pool_for(self, app, params):
        spec = SessionSpec(app=app, config=self.CONFIG, params=params)
        tracer = TraceCollector(enabled=True)
        pool = WorkerPool(4, lambda job_id: spec.build(), ServiceMetrics(),
                          tracer=tracer)
        pool.start()
        return pool, spec, tracer

    @pytest.mark.parametrize("app", SERVED_APPS)
    def test_shard_folds_run_fast_into_its_worker(self, app):
        rng = np.random.default_rng(8)
        params = {"num_vertices": 256} if app == "pagerank" else {}
        shard = TupleBatch(
            keys=rng.zipf(1.5, 1_500).astype(np.uint64) % 256,
            values=rng.integers(0, 256, 1_500, dtype=np.int64))
        pool, spec, tracer = self.pool_for(app, params)
        try:
            pool.dispatch(2, WorkItem("job", shard, dispatch_clock=7))
            expected = run_fast(self.CONFIG, spec.build().kernel, shard)
            assert list(pool._sessions) == [(2, 0, "job")]
            session = pool._sessions[(2, 0, "job")]
            assert pickle.dumps(session.result) \
                == pickle.dumps(expected.result)
            assert (session.segments, session.total_tuples,
                    session.total_cycles) \
                == (1, expected.tuples, expected.cycles)
        finally:
            pool.stop()
        assert tracer.events(trace_events.JOB_WINDOW) == []
        [segment] = tracer.events(trace_events.JOB_SEGMENT)
        assert (segment.clock, segment.worker, segment.data["tuples"],
                segment.data["cycles"]) \
            == (7, 2, expected.tuples, expected.cycles)
        assert pool.metrics.workers[2]["cycles"] == expected.cycles

    def test_raising_shard_leaves_one_ledger_entry(self):
        pool, _, tracer = self.pool_for("pagerank", {"num_vertices": 64})
        try:
            pool.dispatch(2, WorkItem("job", batch_of([1, 64, 3])))
            assert len(pool.errors("job")) == 1
            assert pool.collect("job") is None
        finally:
            pool.stop()
        assert tracer.events(trace_events.JOB_SEGMENT) == []


class TestResize:
    def test_grow_starts_new_workers_immediately(self):
        pool, _ = make_pool(2)
        pool.start()
        try:
            pool.resize(4)
            assert pool.size == 4
            pool.dispatch(3, WorkItem("job", batch_of([1, 2, 3])))
            pool.drain()
            merged = pool.collect("job")
            assert merged.total_tuples == 3
        finally:
            pool.stop()

    def test_grow_before_start_defers_thread_launch(self):
        pool, _ = make_pool(2)
        pool.resize(5)
        assert pool.size == 5
        pool.start()
        try:
            pool.dispatch(4, WorkItem("job", batch_of([7])))
            pool.drain()
            assert pool.collect("job").total_tuples == 1
        finally:
            pool.stop()

    def test_shrink_keeps_removed_workers_sessions_for_collect(self):
        pool, _ = make_pool(4)
        pool.start()
        try:
            for worker in range(4):
                pool.dispatch(worker,
                              WorkItem("job", batch_of([worker] * 10)))
            pool.drain()
            pool.resize(2)
            assert pool.size == 2
            # Workers 2 and 3 are gone, but their partials must merge.
            merged = pool.collect("job")
            assert merged.total_tuples == 40
            golden = kernel_for("histo", 16).golden(
                np.repeat(np.arange(4, dtype=np.uint64), 10),
                np.zeros(40, dtype=np.int64))
            assert np.array_equal(merged.result, golden)
        finally:
            pool.stop()

    def test_shrink_drains_queued_items_before_stopping(self):
        pool, _ = make_pool(3)
        pool.start()
        try:
            for _ in range(20):
                pool.dispatch(2, WorkItem("job", batch_of([5] * 50)))
            pool.resize(1)
            merged = pool.collect("job")
            assert merged.total_tuples == 1_000
        finally:
            pool.stop()

    def test_resize_to_same_size_is_a_no_op(self):
        tracer = TraceCollector(enabled=True)
        pool, _ = make_pool(2, tracer=tracer)
        pool.start()
        try:
            pool.dispatch(1, WorkItem("job", batch_of([1, 2])))
            pool.resize(2)
            assert pool.size == 2
            pool.dispatch(1, WorkItem("job", batch_of([3])))
            pool.drain()
            assert pool.collect("job").total_tuples == 3
        finally:
            pool.stop()
        # No worker was minted beyond the two start() brought up, and
        # worker 1 kept its generation across the resize.
        forks = [e for e in tracer.events()
                 if e.kind == trace_events.BACKEND_FORK]
        assert [e.worker for e in forks] == [0, 1]
        segments = [e for e in tracer.events()
                    if e.kind == trace_events.JOB_SEGMENT]
        assert len({e.generation for e in segments}) == 1

    def test_resize_validates(self):
        pool, _ = make_pool(2)
        with pytest.raises(ValueError):
            pool.resize(0)

    def test_dispatch_to_removed_worker_rejected(self):
        pool, _ = make_pool(3)
        pool.start()
        try:
            pool.resize(2)
            with pytest.raises(ValueError, match="no such worker"):
                pool.dispatch(2, WorkItem("job", batch_of([1])))
        finally:
            pool.stop()

    def test_restart_after_shrink_builds_current_size(self):
        pool, _ = make_pool(4)
        pool.start()
        pool.resize(2)
        pool.stop()
        pool.start()
        try:
            assert pool.size == 2
            with pytest.raises(ValueError, match="no such worker"):
                pool.dispatch(2, WorkItem("job", batch_of([1])))
            pool.dispatch(1, WorkItem("job", batch_of([9, 9])))
            pool.drain()
            assert pool.collect("job").total_tuples == 2
        finally:
            pool.stop()


class TestWorkerIdReuse:
    """Regression: shrink-then-grow must not resurrect old sessions.

    A removed worker's retained partial was keyed ``(worker_id,
    job_id)``, so a new worker minted with the same id silently adopted
    it — double-counting the partial if the job later collected, or
    cross-wiring two jobs' shards.  Generation tagging pins this.
    """

    def test_regrown_worker_id_gets_a_fresh_session(self):
        pool, _ = make_pool(3)
        pool.start()
        try:
            pool.dispatch(2, WorkItem("job", batch_of([7] * 5)))
            pool.drain()
            pool.resize(2)  # worker 2 removed; its partial is retained
            pool.resize(3)  # a new worker 2, under a new generation
            pool.dispatch(2, WorkItem("job", batch_of([9] * 4)))
            pool.drain()
            owned = sorted(key for key in pool._sessions
                           if key[2] == "job")
            # Two distinct sessions for worker id 2 — the retained
            # partial and the new worker's — not one shared one.
            assert [key[0] for key in owned] == [2, 2]
            assert owned[0][1] < owned[1][1]
            merged = pool.collect("job")
            assert merged.total_tuples == 9
            golden = kernel_for("histo", 16).golden(
                np.asarray([7] * 5 + [9] * 4, dtype=np.uint64),
                np.zeros(9, dtype=np.int64))
            assert np.array_equal(merged.result, golden)
        finally:
            pool.stop()

    def test_grow_never_adopts_other_jobs_partials(self):
        pool, _ = make_pool(3)
        pool.start()
        try:
            pool.dispatch(2, WorkItem("job-a", batch_of([3, 3])))
            pool.drain()
            pool.resize(2)
            pool.resize(3)
            pool.dispatch(2, WorkItem("job-b", batch_of([8])))
            pool.drain()
            assert pool.collect("job-a").total_tuples == 2
            assert pool.collect("job-b").total_tuples == 1
        finally:
            pool.stop()
