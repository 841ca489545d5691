"""Tracing's hard promises, as tests.

1. **Backend invariance**: with tracing on, the deterministic
   dispatch-clock timestamps of every job-lifecycle event are identical
   whether the fleet runs inline on the dispatcher thread or on warm
   worker subprocesses.  Segment events carry the clock stamped at
   *dispatch* time (``WorkItem.dispatch_clock``, shipped through the
   procpool pipe), so even events that physically happen in another
   process at a different wall time agree bit for bit.
2. **Non-perturbation**: enabling tracing changes no deterministic
   outcome — job results, cycle counts, and the metrics snapshot are
   identical with tracing on and off.
3. **Replayable order** (inline backend): everything runs on the
   dispatcher thread, so two runs of one scenario emit the identical
   event *sequence*, not merely the same multiset.
"""

import numpy as np
import pytest

from repro.obs import MemorySink, TraceCollector
from repro.obs import events as trace_events
from repro.service import SERVED_APPS, StreamService, TenantSpec
from repro.workloads.streams import chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

#: The full invariance matrix: every backend the service can run
#: shards through.
CONFIGS = ("inline", "process")


def app_workload(app, tuples=6_000, seed=5):
    if app == "pagerank":
        rng = np.random.default_rng(seed)
        batch = TupleBatch(
            keys=rng.integers(0, 256, tuples).astype(np.uint64),
            values=rng.integers(0, 256, tuples, dtype=np.int64),
        )
        return batch, {"num_vertices": 256}
    return ZipfGenerator(alpha=1.5, seed=seed).generate(tuples), {}


def traced_run(app, backend, *, tracer=None, workers=4, **service_kw):
    """Serve one job; returns (events, result, snapshot)."""
    batch, params = app_workload(app)
    if tracer is None:
        tracer = TraceCollector(enabled=True)
    service = StreamService(workers=workers, balancer="skew",
                            backend=backend, tracer=tracer, **service_kw)
    try:
        job_id = service.submit(app, chunk_stream(batch, 2_000),
                                window_seconds=2e-6, params=params,
                                job_id=f"trace-{app}")
        service.run()
        result = service.result(job_id)
        snapshot = service.metrics.snapshot()
    finally:
        service.shutdown()
    return tracer.events(), result, snapshot


def clock_view(events):
    """The deterministic, order-insensitive view of a job trace.

    The inline backend emits a segment event inside ``dispatch``, the
    process backend when the child's ledger comes back at a drain, so
    across backends events are compared as sorted tuples;
    ``generation`` is excluded (the process pool starts at generation
    1, the inline pool at 0) and so is wall time (host-dependent by
    design).
    """
    view = []
    for event in events:
        if not event.kind.startswith("job."):
            continue
        view.append((event.kind, event.clock, event.job_id,
                     event.tenant_id, event.worker,
                     tuple(sorted(
                         (k, v) for k, v in event.data.items()))))
    return sorted(view)


class TestBackendInvariantTimestamps:
    @pytest.mark.parametrize("app", SERVED_APPS)
    def test_dispatch_clock_identical_across_backends(self, app):
        runs = {config: traced_run(app, config) for config in CONFIGS}
        baseline_events, baseline_result, _ = runs["inline"]
        for config, (events, result, _) in runs.items():
            assert clock_view(events) == clock_view(baseline_events), \
                config
            assert result.cycles == baseline_result.cycles, config

    def test_segments_carry_dispatch_time_clocks(self):
        events, _, snapshot = traced_run("histo", "inline")
        segments = [e for e in events
                    if e.kind == trace_events.JOB_SEGMENT]
        windows = {e.clock for e in events
                   if e.kind == trace_events.JOB_WINDOW}
        assert segments
        # Every segment's clock equals the clock of a closed window —
        # the dispatch-time stamp, not a completion-time read.
        assert {e.clock for e in segments} <= windows
        assert sum(e.data["cycles"] for e in segments) > 0

    @pytest.mark.parametrize("workers", (2, 3, 4))
    def test_window_event_lists_the_shards_dispatched(self, workers):
        """A ``job.window`` names every (worker, tuples) shard handed
        over for it, one per lane of the fleet, and inline each comes
        straight back as a ``job.segment`` under the same clock."""
        tracer = TraceCollector(enabled=True)
        service = StreamService(workers=workers, balancer="skew",
                                tracer=tracer)
        try:
            batch, _ = app_workload("histo")
            service.submit("histo", chunk_stream(batch, 2_000),
                           window_seconds=2e-6)
            service.run()
        finally:
            service.shutdown()
        events = [e for e in tracer.events() if e.kind in (
            trace_events.JOB_WINDOW, trace_events.JOB_SEGMENT)]
        windows = [i for i, e in enumerate(events)
                   if e.kind == trace_events.JOB_WINDOW]
        assert windows
        seen = set()
        for start, stop in zip(windows, windows[1:] + [len(events)]):
            window, segments = events[start], events[start + 1:stop]
            shards = window.data["shards"]
            assert sum(t for _, t in shards) == window.data["tuples"]
            assert shards == [[e.worker, e.data["tuples"]]
                              for e in segments]
            assert {e.clock for e in segments} == {window.clock}
            seen.update(worker for worker, _ in shards)
        assert seen == set(range(workers))

    @pytest.mark.parametrize("backend", CONFIGS)
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_hhd_window_goes_whole_to_one_worker(self, backend, adaptive):
        """A heavy-hitter window is not split: its ``job.window`` names
        one shard, the whole window, on worker ``window_index % K``."""
        workers = 3
        tracer = TraceCollector(enabled=True)
        service = StreamService(workers=workers, backend=backend,
                                adaptive=adaptive, tracer=tracer)
        try:
            batch = ZipfGenerator(alpha=1.5, seed=5).generate(20_000)
            service.submit("hhd", chunk_stream(batch, 2_000),
                           window_seconds=2e-6)
            service.run()
        finally:
            service.shutdown()
        windows = tracer.events(trace_events.JOB_WINDOW)
        assert [w.data["window_index"] for w in windows] \
            == list(range(len(windows)))
        assert len(windows) > workers
        for window in windows:
            assert window.data["shards"] == [
                [window.data["window_index"] % workers,
                 window.data["tuples"]]]

    def test_process_backend_traces_forks_and_drain(self):
        events, _, _ = traced_run("histo", "process")
        forks = [e for e in events
                 if e.kind == trace_events.BACKEND_FORK]
        assert len(forks) == 4
        assert all(e.data["worker_kind"] == "process" for e in forks)
        assert any(e.kind == trace_events.BACKEND_DRAIN
                   for e in events)


class TestTracingDoesNotPerturb:
    @pytest.mark.parametrize("backend", CONFIGS)
    def test_results_and_metrics_identical_on_off(self, backend):
        traced_events, traced_result, traced_snap = traced_run(
            "histo", backend)
        off = TraceCollector(enabled=False)
        off_events, off_result, off_snap = traced_run(
            "histo", backend, tracer=off)
        assert off_events == []
        assert np.array_equal(traced_result.result, off_result.result)
        assert traced_result.cycles == off_result.cycles
        # Slab allocation/reuse counters depend on how fast children
        # consume blocks relative to the dispatcher (wall-clock racy by
        # nature); every other transport counter — and everything else
        # in the snapshot — must be identical with tracing on and off.
        traced_transport = traced_snap.pop("transport")
        off_transport = off_snap.pop("transport")
        assert traced_snap == off_snap
        for key in ("shards_shm", "shard_bytes_shared", "shard_retries"):
            assert traced_transport[key] == off_transport[key], key
        assert traced_events  # the traced run did capture

    def test_sink_receives_full_lifecycle(self):
        tracer = TraceCollector(enabled=True)
        sink = tracer.add_sink(MemorySink())
        events, _, _ = traced_run("histo", "inline", tracer=tracer)
        kinds = {e.kind for e in sink.events}
        for expected in (trace_events.JOB_SUBMIT,
                         trace_events.JOB_ADMIT,
                         trace_events.JOB_WINDOW,
                         trace_events.JOB_SEGMENT,
                         trace_events.JOB_MERGE,
                         trace_events.JOB_COMPLETE):
            assert expected in kinds, expected
        assert len(sink.events) == len(events)


def adaptive_tenant_sequence():
    """One traced multi-tenant adaptive inline run, as the raw event
    sequence — emission order kept, wall time and generation dropped."""
    tracer = TraceCollector(enabled=True)
    service = StreamService(workers=4, balancer="skew", adaptive=True,
                            slo=2.0, tracer=tracer)
    service.register_tenant(TenantSpec("interactive", weight=3.0,
                                       slo_delay_tuples=30_000,
                                       max_in_flight=2))
    service.register_tenant(TenantSpec("batch", weight=1.0))
    try:
        jobs = [("batch", "histo", 1.5), ("batch", "hhd", 1.8),
                ("interactive", "hll", 0.8), ("interactive", "dp", 1.2),
                ("interactive", "histo", 2.0)]
        for seed, (tenant, app, alpha) in enumerate(jobs):
            batch = ZipfGenerator(alpha=alpha, seed=seed).generate(6_000)
            service.submit(app, chunk_stream(batch, 1_500),
                           window_seconds=2e-6, tenant_id=tenant,
                           job_id=f"{tenant}-{app}-{seed}")
        service.run()
    finally:
        service.shutdown()
    return [(e.kind, e.clock, e.job_id, e.tenant_id, e.worker, e.data)
            for e in tracer.events()]


class TestInlineTraceOrderIsReplayable:
    def test_two_inline_runs_emit_the_identical_event_sequence(self):
        first = adaptive_tenant_sequence()
        kinds = {event[0] for event in first}
        assert trace_events.JOB_SEGMENT in kinds
        assert any(kind.startswith("control.") for kind in kinds)
        assert first == adaptive_tenant_sequence()
