"""Which windows take the one-pass path, and what they leave behind.

Every job on the fast engine (HISTO, HLL, PageRank, HHD and DP) runs
each window as one :func:`~repro.core.fastpath.run_lanes` call in the
inline pool; a job on the cycle engine keeps the per-shard path: the
window is gathered by :meth:`Lanes.split` (what ``WindowRoute.split``
calls) and each shard goes through ``StreamingSession.process``.  The
spies pin that routing, and the trace test pins that a one-pass window
emits exactly the ``job.window`` and ``job.segment`` sequence the
per-shard path emits for it, and leaves the same result (pickle for
pickle) and ``snapshot()``.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.obs import TraceCollector
from repro.obs import events as trace_events
from repro.runtime.session import StreamingSession
from repro.service import StreamService, TenantSpec
from repro.service import pool as pool_module
from repro.service.balancer import Lanes
from repro.workloads.streams import chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator


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


def serve(app, engine, tracer=None, tenant=None):
    batch, params = stream_for(app)
    service = StreamService(workers=4, engine=engine, tracer=tracer)
    try:
        if tenant is not None:
            service.register_tenant(tenant)
        job_id = service.submit(
            app, chunk_stream(batch, 1_000), window_seconds=1e-6,
            params=params, job_id=f"pin-{app}",
            tenant_id=None if tenant is None else tenant.tenant_id)
        service.run()
        return service.result(job_id), service.metrics.snapshot()
    finally:
        service.shutdown()


@pytest.mark.parametrize("app,engine", [
    ("histo", "cycle"), ("hll", "cycle"), ("pagerank", "cycle"),
    ("dp", "cycle"),
])
def test_other_jobs_split_and_process_per_shard(monkeypatch, app, engine):
    splits = count_calls(monkeypatch, Lanes, "split")
    processed = count_calls(monkeypatch, StreamingSession, "process")
    passes = count_calls(monkeypatch, pool_module, "run_lanes")
    tracer = TraceCollector(enabled=True)
    serve(app, engine, tracer)
    windows = tracer.events(trace_events.JOB_WINDOW)
    assert windows and len(splits) == len(windows)
    assert len(processed) == len(tracer.events(trace_events.JOB_SEGMENT))
    assert len(processed) == sum(len(event.data["shards"])
                                 for event in windows)
    assert passes == []


@pytest.mark.parametrize("app", ["histo", "hll", "pagerank", "hhd", "dp"])
def test_fast_windows_run_one_pass(monkeypatch, app):
    splits = count_calls(monkeypatch, Lanes, "split")
    processed = count_calls(monkeypatch, StreamingSession, "process")
    passes = count_calls(monkeypatch, pool_module, "run_lanes")
    tracer = TraceCollector(enabled=True)
    serve(app, "fast", tracer)
    windows = tracer.events(trace_events.JOB_WINDOW)
    assert windows and len(passes) == len(windows)
    assert splits == [] and processed == []


def event_rows(tracer):
    return [(event.kind, event.clock, event.job_id, event.tenant_id,
             event.worker, event.generation, event.data)
            for event in tracer.events("job.")]


@pytest.mark.parametrize("app", ["histo", "hll", "pagerank", "hhd", "dp"])
@pytest.mark.parametrize("quota", [None, 2, 3])
def test_one_pass_trace_and_results_match_the_per_shard_path(
        monkeypatch, app, quota):
    # A quota of 2 folds lanes 2 and 3 of the 4-worker fleet onto
    # workers 0 and 1; a quota of 3 folds lane 3 onto worker 0.
    tenant = (None if quota is None
              else TenantSpec("capped", worker_quota=quota))
    one_pass = TraceCollector(enabled=True)
    fast_result, fast_snapshot = serve(app, "fast", one_pass, tenant)
    monkeypatch.setattr(StreamingSession, "one_pass",
                        property(lambda session: False))
    per_shard = TraceCollector(enabled=True)
    shard_result, shard_snapshot = serve(app, "fast", per_shard, tenant)

    assert event_rows(one_pass) == event_rows(per_shard)
    segments = per_shard.events(trace_events.JOB_SEGMENT)
    assert len({event.worker for event in segments}) > 1
    # Each worker's hitters or partitions, folded in the same order:
    # the pickle sees dict order and every array's dtype.
    assert len(fast_result.result)
    assert pickle.dumps(fast_result.result) \
        == pickle.dumps(shard_result.result)
    assert dataclasses.replace(fast_result, result=None) \
        == dataclasses.replace(shard_result, result=None)
    assert fast_snapshot == shard_snapshot
