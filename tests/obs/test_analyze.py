"""Stage-latency breakdown and decision-log analysis of captures."""

from repro.obs import (
    decision_log,
    read_jsonl,
    render_breakdown,
    stage_breakdown,
    write_jsonl,
)
from repro.obs import events as trace_events
from repro.obs.analyze import job_spans
from repro.obs.events import TraceEvent


def _lifecycle(job_id, tenant, submit, admit, window, cycles,
               merge_wall, complete_wall):
    return [
        TraceEvent(trace_events.JOB_SUBMIT, submit, 0.0,
                   job_id=job_id, tenant_id=tenant),
        TraceEvent(trace_events.JOB_ADMIT, admit, 0.0,
                   job_id=job_id, tenant_id=tenant),
        TraceEvent(trace_events.JOB_WINDOW, window, 0.0,
                   job_id=job_id, tenant_id=tenant,
                   data={"tuples": 100, "window_index": 0,
                         "shards": [[0, 100]]}),
        TraceEvent(trace_events.JOB_SEGMENT, window, 0.0,
                   job_id=job_id, tenant_id=tenant, worker=0,
                   data={"tuples": 100, "cycles": cycles}),
        TraceEvent(trace_events.JOB_MERGE, window, merge_wall,
                   job_id=job_id, tenant_id=tenant),
        TraceEvent(trace_events.JOB_COMPLETE, window, complete_wall,
                   job_id=job_id, tenant_id=tenant),
    ]


class TestJobSpans:
    def test_stage_arithmetic(self):
        spans = job_spans(_lifecycle("j", "alice", submit=0, admit=4_000,
                                     window=12_000, cycles=900,
                                     merge_wall=10.0,
                                     complete_wall=10.002))
        record = spans["j"]
        assert record["queue"] == 4_000
        assert record["dispatch"] == 8_000
        assert record["execute"] == 900
        assert abs(record["merge"] - 0.002) < 1e-9

    def test_partial_trace_yields_none_stages(self):
        events = [TraceEvent(trace_events.JOB_SEGMENT, 5, 0.0,
                             job_id="j", data={"cycles": 10})]
        record = job_spans(events)["j"]
        assert record["queue"] is None
        assert record["dispatch"] is None
        assert record["execute"] == 10
        assert record["merge"] is None


class TestStageBreakdown:
    def test_groups_by_tenant_and_filters(self):
        events = (
            _lifecycle("a", "alice", 0, 1_000, 5_000, 500, 1.0, 1.001)
            + _lifecycle("b", "bob", 0, 9_000, 20_000, 2_000, 2.0, 2.01)
        )
        breakdown = stage_breakdown(events)
        assert set(breakdown) == {"alice", "bob"}
        assert breakdown["alice"]["queue"]["p50"] == 1_000
        assert breakdown["bob"]["dispatch"]["max"] == 11_000
        only_bob = stage_breakdown(events, tenant_id="bob")
        assert set(only_bob) == {"bob"}

    def test_render_is_aligned_and_unit_labelled(self):
        events = _lifecycle("a", "alice", 0, 1_000, 5_000, 500,
                            1.0, 1.001)
        text = render_breakdown(stage_breakdown(events))
        assert "alice" in text
        for unit in ("tup", "cyc", "ms"):
            assert unit in text
        widths = {len(line) for line in text.splitlines()[:2]}
        assert len(widths) == 1  # header and rule align


class TestDecisionLog:
    def test_flattens_control_events_in_order(self):
        events = [
            TraceEvent(trace_events.CONTROL_DRIFT, 8_000, 0.0,
                       tenant_id="batch",
                       data={"interval_tuples": 8_000}),
            TraceEvent(trace_events.JOB_WINDOW, 8_000, 0.0,
                       job_id="j"),
            TraceEvent(trace_events.CONTROL_DECISION, 8_000, 0.0,
                       tenant_id="batch", data={"decision": "hold"}),
            TraceEvent(trace_events.CONTROL_RESIZE, 12_000, 0.0,
                       data={"size_from": 4, "size_to": 6,
                             "reason": "slo"}),
        ]
        log = decision_log(events)
        assert [entry["kind"] for entry in log] == [
            "control.drift", "control.decision", "control.resize"]
        assert log[1]["decision"] == "hold"
        assert log[2]["size_to"] == 6


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        events = _lifecycle("j", "alice", 0, 1, 2, 3, 4.0, 5.0)
        path = tmp_path / "capture.jsonl"
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events
