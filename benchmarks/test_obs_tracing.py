"""Observability headlines: inert disabled tracing, stable capture.

Two asserted claims from the ``repro.obs`` subsystem:

* **tracing off changes nothing**: the same seeded serving run with a
  disabled collector (the default everywhere) produces *identical*
  deterministic metrics to a run with no collector plumbing exercised
  — the hot paths pay one attribute read per guard.
* **the capture is analysis-grade**: with tracing on, the run emits a
  JSONL capture (saved under ``benchmarks/results/`` as
  ``trace_serving.jsonl``) whose job spans fold into a complete
  per-tenant stage-latency breakdown — no job is missing a stage, and
  the dispatch-clock stamps agree with the service's own counters.

Wall time, tracing overhead included (``harness.trace_overhead_ratio``,
``obs.enabled_wall_ratio``), is ``python3 -m bench``'s to measure.
"""

from repro.obs import JsonlSink, TraceCollector, read_jsonl, stage_breakdown
from repro.service import StreamService, TenantSpec
from repro.workloads.streams import chunk_stream
from repro.workloads.zipf import ZipfGenerator

from benchmarks.conftest import RESULTS_DIR

WORKERS = 4
WINDOW_SECONDS = 2.56e-6
TUPLES = 12_000


def serve_mix(tracer=None):
    """One multi-tenant mix; returns the metrics snapshot."""
    service = StreamService(workers=WORKERS, balancer="skew",
                            tracer=tracer)
    service.register_tenant(TenantSpec("interactive", weight=3.0))
    service.register_tenant(TenantSpec("batch", weight=1.0))
    for seed, (app, tenant) in enumerate((
            ("histo", "batch"), ("histo", "batch"),
            ("hll", "interactive"), ("hhd", "interactive"))):
        source = chunk_stream(
            ZipfGenerator(alpha=1.5, seed=seed).generate(TUPLES), 2_000)
        service.submit(app, source, window_seconds=WINDOW_SECONDS,
                       tenant_id=tenant)
    service.run()
    snapshot = service.metrics.snapshot()
    service.shutdown()
    return snapshot


def test_disabled_tracing_is_near_free(emit):
    baseline_snap = serve_mix(tracer=None)
    disabled_snap = serve_mix(tracer=TraceCollector(enabled=False))
    # Deterministic accounting is bit-identical: a disabled collector
    # never perturbs cycle counts, clocks, or tenant attribution.
    assert disabled_snap == baseline_snap

    emit("obs_overhead",
         f"serving mix ({4 * TUPLES:,} tuples, {WORKERS} workers):\n"
         "  no collector vs tracing disabled: deterministic metrics "
         "identical",
         data={
             "tuples": 4 * TUPLES,
             "workers": WORKERS,
             "metrics_identical": True,
         })


def test_capture_yields_complete_stage_breakdown(emit):
    capture = RESULTS_DIR / "trace_serving.jsonl"
    RESULTS_DIR.mkdir(exist_ok=True)
    if capture.exists():
        capture.unlink()
    tracer = TraceCollector(enabled=True)
    tracer.add_sink(JsonlSink(capture))
    snapshot = serve_mix(tracer=tracer)
    tracer.close()

    events = read_jsonl(capture)
    assert len(events) == tracer.emitted

    # The capture's clock agrees with the service's own dispatch clock.
    submits = [e for e in events if e.kind == "job.submit"]
    segments = [e for e in events if e.kind == "job.segment"]
    assert len(submits) == 4
    assert max(e.clock for e in events) == snapshot["tuples_windowed"]
    assert sum(e.data["tuples"] for e in segments) \
        == snapshot["total_tuples"]
    # Each window event lists the shards its segments answer.
    windows = [e for e in events if e.kind == "job.window"]
    assert sum(len(e.data["shards"]) for e in windows) == len(segments)
    assert sum(tuples for e in windows for _, tuples in e.data["shards"]) \
        == snapshot["total_tuples"]

    # Every tenant's jobs fold into a full four-stage breakdown.
    breakdown = stage_breakdown(events)
    assert set(breakdown) == {"interactive", "batch"}
    for tenant, stages in breakdown.items():
        for stage in ("queue", "dispatch", "execute", "merge"):
            assert stages[stage] is not None, (tenant, stage)

    rows = []
    for tenant, stages in sorted(breakdown.items()):
        rows.append(
            f"  {tenant:<12} jobs={stages['jobs']} "
            f"queue p95 {stages['queue']['p95']:,.0f} tup, "
            f"execute p95 {stages['execute']['p95']:,.0f} cyc, "
            f"merge p95 {stages['merge']['p95'] * 1e3:.2f} ms")
    emit("obs_capture",
         f"traced serving mix -> {capture.name} "
         f"({len(events)} events):\n" + "\n".join(rows),
         data={
             "events": len(events),
             "jobs": len(submits),
             "windows": len(windows),
             "segments": len(segments),
             "breakdown": breakdown,
         })
