"""The process backend's hosting map, generated against the inline pool.

K logical workers (1..6) live on one warm child per spare CPU — the
spare-CPU count faked at 0..3 — and each child gets several windows per
block, which it splits itself.  None of that may show: for a generated
dispatch sequence of two interleaved jobs (any served apps, ``dp``'s
order-sensitive lists and ``hhd`` included), empty shards, shards with
non-default dtypes, whole windows under random routes (teams, or the
whole window on one worker as a by-key window goes; the plan changing
from window to window inside one block), grow/shrink mid-job and drains at arbitrary points, the
process backend and the inline :class:`~repro.service.pool.WorkerPool`
must collect the same result bits, the same
:class:`~repro.service.metrics.ServiceMetrics` snapshot (minus the
process-only ``transport`` block) and the same ``job.window`` and
``job.segment`` trace events.
"""

import pickle
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import ArchitectureConfig
from repro.obs import TraceCollector
from repro.obs import events as trace_events
from repro.service import (
    SERVED_APPS,
    ProcessBackend,
    ServiceMetrics,
    SessionSpec,
    WorkerPool,
)
from repro.service import procpool
from repro.service.balancer import WindowRoute
from repro.service.pool import WorkItem
from repro.workloads.tuples import TupleBatch

CONFIG = ArchitectureConfig(lanes=8, pripes=16, secpes=0,
                            reschedule_threshold=0.0)
JOBS = ("job-a", "job-b")
#: Narrow (keys, values) dtypes a shard may arrive in.
NARROW = ((np.uint32, np.int32), (np.uint16, np.int64), (np.uint64, np.int16))

window = st.tuples(
    st.just("window"),
    st.sampled_from(JOBS),
    st.lists(st.integers(0, 80), min_size=1, max_size=6),  # tuples/worker
    st.sampled_from((None,) + NARROW),
    st.integers(0, 2**16))
#: A whole window under a route: its tuples, its plan as a worker order
#: cut into teams (workers beyond the fleet are dropped when it runs),
#: or the whole window on one worker.
routed = st.tuples(
    st.just("routed"),
    st.sampled_from(JOBS),
    st.integers(1, 200),
    st.permutations(range(6)),
    st.lists(st.integers(1, 5), min_size=1, max_size=4),  # team sizes
    st.booleans(),
    st.integers(0, 2**16))
operations = st.lists(
    st.one_of(window, window, routed, routed,
              st.tuples(st.just("resize"), st.integers(1, 6)),
              st.tuples(st.just("drain"))),
    min_size=1, max_size=10)


def shard(tuples, seed, dtypes):
    rng = np.random.default_rng(seed)
    batch = TupleBatch(rng.integers(0, 256, tuples).astype(np.uint64),
                       rng.integers(0, 256, tuples, dtype=np.int64))
    if dtypes is not None:
        # Past TupleBatch's coercion, as a caller may hand them over.
        batch.keys = batch.keys.astype(dtypes[0])
        batch.values = batch.values.astype(dtypes[1])
    return batch


def route_of(op, workers, clock):
    """The op's route, cut to the ``workers`` the fleet has now: its
    teams, or (``whole``) the one-team route of a by-key window."""
    _, _, _, order, sizes, whole, _ = op
    if whole:
        return WindowRoute(((clock % workers,),), clock)
    live = [worker for worker in order if worker < workers]
    teams, start = [], 0
    for size in sizes:
        if live[start:start + size]:
            teams.append(tuple(live[start:start + size]))
        start += size
    return WindowRoute(tuple(teams) or ((0,),), clock)


def run(backend, ops, narrow):
    """Replay ``ops``; returns (result bits per job, snapshot)."""
    backend.start()
    try:
        for clock, op in enumerate(ops):
            if op[0] == "window":
                _, job_id, sizes, dtypes, seed = op
                for worker_id, tuples in enumerate(sizes[:backend.size]):
                    batch = shard(tuples, seed + worker_id,
                                  dtypes if narrow else None)
                    backend.dispatch(worker_id, WorkItem(
                        job_id, batch, tenant_id=f"tenant-{job_id}",
                        dispatch_clock=clock))
            elif op[0] == "routed":
                batch = shard(op[2], op[6], None)
                backend.dispatch_window(
                    WorkItem(op[1], batch, tenant_id=f"tenant-{op[1]}",
                             dispatch_clock=clock),
                    route_of(op, backend.size, clock))
            elif op[0] == "resize":
                backend.resize(op[1])
            else:
                backend.drain()
        backend.drain()
        collected = []
        for job_id in JOBS:
            merged = backend.collect(job_id)
            collected.append(None if merged is None else pickle.dumps((
                merged.result, merged.segments, merged.total_tuples,
                merged.total_cycles)))
            assert backend.errors(job_id) == []
    finally:
        backend.stop()
    snapshot = backend.metrics.snapshot()
    snapshot.pop("transport", None)
    return collected, snapshot


def windows(tracer):
    """Window events as sorted (clock, job, tenant, data) tuples."""
    return sorted(
        (e.clock, e.job_id, e.tenant_id, e.data["tuples"],
         e.data["window_index"], e.data["shards"])
        for e in tracer.events() if e.kind == trace_events.JOB_WINDOW)


def segments(tracer, generation_offset):
    """Segment events as sorted tuples; the process pool's generations
    start one above the inline pool's (its start mints generation 1)."""
    return sorted(
        (e.clock, e.job_id, e.tenant_id, e.worker,
         e.generation - generation_offset, e.data["tuples"],
         e.data["cycles"])
        for e in tracer.events() if e.kind == trace_events.JOB_SEGMENT)


@settings(max_examples=25, deadline=None)
@given(workers=st.integers(1, 6), spare=st.integers(0, 3),
       apps=st.tuples(st.sampled_from(SERVED_APPS),
                      st.sampled_from(SERVED_APPS)),
       ops=operations)
def test_hosting_map_is_invisible_next_to_inline(workers, spare, apps, ops):
    specs = {job_id: SessionSpec(
        app=app, config=CONFIG, engine="fast",
        params={"num_vertices": 256} if app == "pagerank" else {})
        for job_id, app in zip(JOBS, apps)}
    inline_tracer = TraceCollector(enabled=True)
    inline = WorkerPool(workers, lambda job_id: specs[job_id].build(),
                        ServiceMetrics(), tracer=inline_tracer)
    inline_out = run(inline, ops, narrow=False)

    process_tracer = TraceCollector(enabled=True)
    process = ProcessBackend(workers, specs.__getitem__, ServiceMetrics(),
                             tracer=process_tracer)
    with mock.patch.object(procpool, "_spare_cores", lambda: spare):
        process_out = run(process, ops, narrow=True)

    assert process_out == inline_out
    assert segments(process_tracer, 1) == segments(inline_tracer, 0)
    assert windows(process_tracer) == windows(inline_tracer)
