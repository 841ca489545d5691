"""Every window is one pass, and it leaves what the per-shard path would.

Every job (HISTO, HLL, PageRank, HHD and DP) runs each window as one
:func:`~repro.core.fastpath.run_lanes` call in the inline pool: the
spies pin that no successful window gathers its shards
(:meth:`Lanes.split`, what ``WindowRoute.split`` calls) or runs one
through ``StreamingSession.process``.  The trace test holds the pass to
the oracle helper (``tests/oracle.py``) on the fast engine: each
recorded window split by its route and every shard run on its own must
give the same ``job.window`` shards, ``job.segment`` rows, result
(pickle for pickle) and per-worker and per-tenant tuples and cycles.
"""

import pickle

import numpy as np
import pytest

from repro.obs import TraceCollector
from repro.obs import events as trace_events
from repro.runtime.session import StreamingSession
from repro.service import StreamService
from repro.service import pool as pool_module
from repro.service.balancer import Lanes
from repro.workloads.streams import chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator
from tests.oracle import record_windows, replay


def stream_for(app):
    if app == "pagerank":
        rng = np.random.default_rng(4)
        batch = TupleBatch(
            keys=rng.integers(0, 256, 6_000).astype(np.uint64),
            values=rng.integers(0, 256, 6_000, dtype=np.int64))
        return batch, {"num_vertices": 256}
    return ZipfGenerator(alpha=1.5, seed=5).generate(6_000), {}


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def serve(app, tracer=None, workers=4):
    batch, params = stream_for(app)
    service = StreamService(workers=workers, tracer=tracer)
    try:
        job_id = service.submit(
            app, chunk_stream(batch, 1_000), window_seconds=1e-6,
            params=params, job_id=f"pin-{app}")
        service.run()
        return (service.result(job_id), service.metrics.snapshot(),
                service.config)
    finally:
        service.shutdown()


@pytest.mark.parametrize("app", ["histo", "hll", "pagerank", "hhd", "dp"])
def test_fast_windows_run_one_pass(monkeypatch, app):
    splits = count_calls(monkeypatch, Lanes, "split")
    processed = count_calls(monkeypatch, StreamingSession, "process")
    passes = count_calls(monkeypatch, pool_module, "run_lanes")
    tracer = TraceCollector(enabled=True)
    serve(app, tracer)
    windows = tracer.events(trace_events.JOB_WINDOW)
    assert windows and len(passes) == len(windows)
    assert splits == [] and processed == []


@pytest.mark.parametrize("app", ["histo", "hll", "pagerank", "hhd", "dp"])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_one_pass_trace_and_results_match_the_per_shard_path(
        monkeypatch, app, workers):
    windows = record_windows(monkeypatch)
    one_pass = TraceCollector(enabled=True)
    fast_result, fast_snapshot, config = serve(app, one_pass, workers)
    per_shard = replay(windows, app, config, stream_for(app)[1],
                       engine="fast")

    assert [event.data["shards"]
            for event in one_pass.events(trace_events.JOB_WINDOW)] \
        == [[[worker, tuples] for worker, tuples, _ in window]
            for window in per_shard.windows]
    segments = one_pass.events(trace_events.JOB_SEGMENT)
    assert [(event.worker, event.data["tuples"], event.data["cycles"])
            for event in segments] \
        == [row for window in per_shard.windows for row in window]
    assert len({event.worker for event in segments}) > 1
    # Each worker's hitters or partitions, folded in the same order:
    # the pickle sees dict order and every array's dtype.
    assert len(fast_result.result)
    assert pickle.dumps(fast_result.result) \
        == pickle.dumps(per_shard.result)
    assert (fast_result.segments, fast_result.tuples, fast_result.cycles) \
        == tuple(map(sum, zip(*per_shard.workers.values())))
    assert {worker: (row["segments"], row["tuples"], row["cycles"])
            for worker, row in fast_snapshot["workers"].items()} \
        == per_shard.workers
    assert {tenant_id: (row["tuples"], row["cycles"])
            for tenant_id, row in fast_snapshot["tenants"].items()} \
        == per_shard.tenants
