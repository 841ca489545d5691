"""Service metrics: bounded sampling, snapshot percentiles, stalls."""

import pytest

from repro.obs.exposition import parse_prometheus
from repro.service.metrics import (
    COUNTERS,
    FLEET_FIGURES,
    QUEUE_DEPTH_WINDOW,
    TENANT_FIGURES,
    WORKER_COUNTERS,
    ServiceMetrics,
)

DECLARED = [(section, name) for section, names in COUNTERS.items()
            for name in names]

#: How to record each fleet / tenant figure once, and the value the
#: snapshot and the sample then show.
FLEET_RECORDED = {
    "windows_closed": (lambda m: m.record_window(5), 1),
    "tuples_windowed": (lambda m: m.record_window(5), 5),
    "late_tuples": (lambda m: m.record_late(5), 5),
    "total_tuples": (lambda m: m.record_segment(0, 14, 7), 14),
    "busiest_worker_cycles": (lambda m: m.record_segment(0, 14, 7), 7),
    "makespan_cycles": (
        lambda m: m.record_control(reschedule_stall_cycles=7), 7),
    "fleet_throughput": (lambda m: m.record_segment(0, 14, 7), 2.0),
    "rebalances": (lambda m: m.set_rebalances(5), 5),
}

TENANT_RECORDED = {
    "weight": (lambda m: m.register_tenant("t", weight=2.5), 2.5),
    "tuples": (lambda m: m.record_segment(0, 14, 7, tenant="t"), 14),
    "cycles": (lambda m: m.record_segment(0, 14, 7, tenant="t"), 7),
    "stall_cycles": (lambda m: m.record_control(
        reschedule_stall_cycles=5, tenant="t"), 5),
    "slo_attainment": (lambda m: (
        m.register_tenant("t", slo_delay_tuples=10),
        m.record_queue_delay("t", 5), m.record_queue_delay("t", 50)), 0.5),
}


class TestDeclaredCounters:
    """Every figure is declared once, in ``COUNTERS``, ``WORKER_COUNTERS``,
    ``FLEET_FIGURES`` or ``TENANT_FIGURES``; recording, the snapshot and
    the exposition all follow from the tables."""

    def test_the_table_is_the_three_flat_sections(self):
        assert list(COUNTERS) == ["gateway", "transport", "control"]
        assert len(DECLARED) == 21

    def test_every_figure_has_a_recording_case(self):
        assert list(FLEET_RECORDED) == list(FLEET_FIGURES)
        assert list(TENANT_RECORDED) == list(TENANT_FIGURES)

    @pytest.mark.parametrize("name", list(WORKER_COUNTERS))
    def test_worker_counter_shows_in_snapshot_and_exposition(self, name):
        metrics = ServiceMetrics()
        metrics.record_segment(3, tuples=14, cycles=7)
        value = {"segments": 1, "tuples": 14, "cycles": 7}[name]
        assert metrics.snapshot()["workers"][3][name] == value
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples[(f"repro_worker_{name}_total",
                        frozenset({("worker", "3")}))] == value

    @pytest.mark.parametrize("key", list(FLEET_FIGURES))
    def test_fleet_figure_shows_in_snapshot_and_exposition(self, key):
        metrics = ServiceMetrics()
        record, value = FLEET_RECORDED[key]
        record(metrics)
        assert metrics.snapshot()[key] == value
        family = FLEET_FIGURES[key][0]
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples[(f"repro_{family}", frozenset())] == value

    @pytest.mark.parametrize("key", list(TENANT_FIGURES))
    def test_tenant_figure_shows_in_snapshot_and_exposition(self, key):
        metrics = ServiceMetrics()
        record, value = TENANT_RECORDED[key]
        record(metrics)
        assert metrics.snapshot()["tenants"]["t"][key] == value
        family = TENANT_FIGURES[key][0]
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples[(f"repro_{family}",
                        frozenset({("tenant", "t")}))] == value

    @pytest.mark.parametrize("section,name", DECLARED)
    def test_recording_one_shows_in_snapshot_and_exposition(
            self, section, name):
        metrics = ServiceMetrics()
        getattr(metrics, f"record_{section}")(**{name: 1})
        snapshot = metrics.snapshot()
        counted = {(sec, key): snapshot[sec][key] for sec, key in DECLARED}
        assert counted == {pair: int(pair == (section, name))
                           for pair in DECLARED}
        samples = parse_prometheus(metrics.to_prometheus())
        assert samples[(f"repro_{section}_{name}_total",
                        frozenset())] == 1

    @pytest.mark.parametrize(
        "name", ("shards_pipe", "shard_bytes_copied", "slab_fallbacks"))
    def test_pipe_transport_counters_are_gone(self, name):
        # Shards only ever cross through the slab arena: the copy and
        # fallback counters of the deleted pipe path are undeclared, so
        # recording one is an error and no report shows one.
        assert name not in COUNTERS["transport"]
        metrics = ServiceMetrics()
        with pytest.raises(TypeError, match=name):
            metrics.record_transport(**{name: 1})
        metrics.record_transport(shards_shm=1, shard_bytes_shared=8)
        assert name not in metrics.snapshot()["transport"]
        assert name not in metrics.to_prometheus()
        text = metrics.render()
        assert "shards_shm 1" in text
        assert "pipe" not in text and "fallbacks" not in text

    @pytest.mark.parametrize("section", list(COUNTERS))
    def test_undeclared_name_raises_and_counts_nothing(self, section):
        metrics = ServiceMetrics()
        record = getattr(metrics, f"record_{section}")
        declared = next(iter(COUNTERS[section]))
        with pytest.raises(TypeError, match="no_such_counter"):
            record(**{declared: 1, "no_such_counter": 1})
        assert metrics.snapshot() == ServiceMetrics().snapshot()


class TestQueueDepthRingBuffer:
    def test_samples_are_bounded_on_long_lived_services(self):
        metrics = ServiceMetrics()
        for depth in range(QUEUE_DEPTH_WINDOW * 3):
            metrics.sample_queue_depth(depth)
        assert len(metrics.queue_depth_samples) == QUEUE_DEPTH_WINDOW
        # The newest samples survive, the oldest fell off the back.
        assert metrics.queue_depth_samples[-1] == QUEUE_DEPTH_WINDOW * 3 - 1
        assert metrics.queue_depth_samples[0] == QUEUE_DEPTH_WINDOW * 2

    def test_snapshot_exposes_depth_percentiles(self):
        metrics = ServiceMetrics()
        for depth in [0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 10, 100]:
            metrics.sample_queue_depth(depth)
        snap = metrics.snapshot()["queue_depth"]
        assert snap["p50"] == 0
        assert snap["p95"] > 10
        assert snap["peak"] == 100
        assert snap["samples"] == 12

    def test_empty_metrics_snapshot_is_all_zero(self):
        snap = ServiceMetrics().snapshot()
        assert snap["queue_depth"] == {"p50": 0.0, "p95": 0.0,
                                       "peak": 0, "last": 0,
                                       "samples": 0}
        assert snap["fleet_throughput"] == 0.0
        assert snap["control"]["plan_age_p50"] == 0.0


class TestWindowRecord:
    def test_one_window_record_equals_its_segment_records(self):
        """A window's K segments charged in one call leave the snapshot
        that K ``record_segment`` calls leave."""
        windows = [
            ([(1, 700, 180), (0, 1_300, 410), (3, 2_000, 520)], "gold"),
            ([(0, 5, 2), (1, 9, 4)], None),
            ([(3, 40, 11)], "silver"),
        ]
        batched, single = ServiceMetrics(), ServiceMetrics()
        for segments, tenant in windows:
            batched.record_segments(segments, tenant=tenant)
            for worker, tuples, cycles in segments:
                single.record_segment(worker, tuples, cycles, tenant=tenant)
        snap = batched.snapshot()
        assert snap == single.snapshot()
        assert {worker: (record["segments"], record["tuples"],
                         record["cycles"])
                for worker, record in snap["workers"].items()} \
            == {1: (2, 709, 184), 0: (2, 1_305, 412), 3: (2, 2_040, 531)}
        assert {name: (record["tuples"], record["cycles"])
                for name, record in snap["tenants"].items()} \
            == {"gold": (4_000, 1_110), "silver": (40, 11)}


class TestStallAccounting:
    def test_stalls_extend_makespan_but_not_worker_cycles(self):
        metrics = ServiceMetrics()
        metrics.record_segment(0, tuples=100, cycles=1_000)
        metrics.record_segment(1, tuples=100, cycles=400)
        metrics.record_control(reschedule_stall_cycles=500)
        assert metrics.busiest_worker_cycles() == 1_000
        assert metrics.makespan_cycles() == 1_500
        assert metrics.fleet_throughput() == pytest.approx(200 / 1_500)

    def test_busiest_worker_cycles_can_exclude_removed_workers(self):
        """After a scale-down the removed worker's counter is retained
        for reporting but must not dominate autoscaling measurements."""
        metrics = ServiceMetrics()
        metrics.record_segment(0, tuples=10, cycles=100)
        metrics.record_segment(3, tuples=10, cycles=9_000)  # removed
        assert metrics.busiest_worker_cycles() == 9_000
        assert metrics.busiest_worker_cycles(within=2) == 100
        assert metrics.busiest_worker_cycles(within=0) == 0

    def test_render_includes_control_line_when_active(self):
        metrics = ServiceMetrics()
        metrics.record_segment(0, tuples=10, cycles=10)
        assert "\ncontrol " not in metrics.render()
        metrics.record_control(drift_events=2, replans_applied=1,
                               replans_suppressed=1,
                               reschedule_stall_cycles=123)
        line = metrics.render().split("\ncontrol ", 1)[1]
        # Only the non-zero declared counters, in table order.
        assert line.split(": ", 1)[1] == (
            "drift_events 2, replans_applied 1, replans_suppressed 1, "
            "reschedule_stall_cycles 123")

    def test_snapshot_control_section_tracks_counters(self):
        metrics = ServiceMetrics()
        metrics.record_control(drift_events=3, replans_applied=2,
                               replans_suppressed=1,
                               scale_up_events=1, scale_down_events=2,
                               reschedule_stall_cycles=42, plan_age=7)
        control = metrics.snapshot()["control"]
        assert control["drift_events"] == 3
        assert control["replans_applied"] == 2
        assert control["replans_suppressed"] == 1
        assert control["scale_up_events"] == 1
        assert control["scale_down_events"] == 2
        assert control["reschedule_stall_cycles"] == 42
        assert control["plan_age_p50"] == 7


class TestSnapshotLocking:
    """Regression: a derived figure was once read from two counters in
    two unlocked loads, so a concurrent writer could surface a value
    describing no instant that ever existed (torn read).  The snapshot
    derives every figure under its single lock acquisition."""

    def test_snapshot_reuses_the_held_lock_without_deadlock(self):
        # _snapshot_locked derives the throughput while already holding
        # the non-reentrant lock; a naive `with self._lock` in the
        # accessor it calls would deadlock here.
        metrics = ServiceMetrics()
        metrics.record_segment(0, tuples=3, cycles=4)
        snapshot = metrics.snapshot()
        assert snapshot["fleet_throughput"] == pytest.approx(0.75)

    def test_no_torn_reads_under_concurrent_segments(self):
        # The writer adds tuples and cycles together, so a correctly
        # locked reader can only ever observe a throughput of 1.0; a
        # torn read sees one counter's update without the other.
        import threading

        metrics = ServiceMetrics()
        metrics.record_segment(0, tuples=2, cycles=2)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.record_segment(0, tuples=2, cycles=2)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(2_000):
                snapshot = metrics.snapshot()
                assert snapshot["fleet_throughput"] == 1.0
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_a_window_s_shards_land_together(self):
        # One record_segments call charges two workers alike, so a
        # locked reader always sees them level: imbalance exactly 1.
        import threading

        metrics = ServiceMetrics()
        metrics.record_segments([(0, 1, 1), (1, 1, 1)])
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.record_segments([(0, 1, 1), (1, 1, 1)])

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(2_000):
                snapshot = metrics.snapshot()
                assert snapshot["imbalance"] == 1.0
                workers = snapshot["workers"]
                assert workers[0]["cycles"] == workers[1]["cycles"]
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_control_section_is_its_counters_and_the_plan_age(self):
        # No figure is derived into the control section but the median
        # plan age; every other key is a declared counter.
        metrics = ServiceMetrics()
        metrics.record_control(replans_applied=1, plan_age=3)
        control = metrics.snapshot()["control"]
        assert set(control) == set(COUNTERS["control"]) | {"plan_age_p50"}
        assert control["plan_age_p50"] == 3
