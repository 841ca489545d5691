"""Event-time windowing: closing, lateness, flush, batch contents."""

import numpy as np
import pytest

from repro.service.windows import WindowManager
from repro.workloads.streams import (
    NetworkModel,
    TimestampedBatch,
    chunk_stream,
    timestamp_batch,
)
from repro.workloads.tuples import TupleBatch


def stamped(times, keys=None):
    times = np.asarray(times, dtype=np.float64)
    if keys is None:
        keys = np.arange(len(times), dtype=np.uint64)
    return TimestampedBatch(times,
                            TupleBatch.from_keys(np.asarray(keys,
                                                            np.uint64)))


class TestWindowClosing:
    def test_window_closes_when_watermark_passes_end(self):
        manager = WindowManager(window_seconds=1.0)
        assert manager.observe(stamped([0.1, 0.5])) == []
        closed = manager.observe(stamped([1.2]))
        assert [w.index for w in closed] == [0]
        assert closed[0].closed and closed[0].tuples == 2

    def test_window_closes_once_the_watermark_reaches_its_end(self):
        # No grace after the end: a tuple stamped at 1.0 closes window
        # 0, and one at 1.2 closes it however far it trails the next.
        manager = WindowManager(window_seconds=1.0)
        assert manager.observe(stamped([0.1, 0.9])) == []
        assert [w.index for w in manager.observe(stamped([1.0]))] == [0]
        assert manager.open_windows == (1,)

    def test_multiple_windows_close_oldest_first(self):
        manager = WindowManager(window_seconds=1.0)
        # Watermark jumps to 2.4, so windows 0 and 1 close immediately.
        closed = manager.observe(stamped([0.2, 1.3, 2.4]))
        assert [w.index for w in closed] == [0, 1]
        assert [w.index for w in manager.observe(stamped([5.0]))] == [2]

    def test_one_batch_spanning_windows_splits(self):
        manager = WindowManager(window_seconds=1.0)
        closed = manager.observe(
            stamped([0.1, 0.9, 1.1, 2.05], keys=[10, 11, 12, 13]))
        assert [w.index for w in closed] == [0, 1]
        assert sorted(closed[0].to_batch().keys.tolist()) == [10, 11]
        assert closed[1].to_batch().keys.tolist() == [12]


class TestBoundaryAssignment:
    """Tuples stamped exactly at a window start belong to that window."""

    def test_exact_boundary_joins_its_own_window(self):
        # 0.3 / 0.1 == 2.999... in floats: floor_divide alone files the
        # tuple under window 2 instead of 3.
        manager = WindowManager(window_seconds=0.1)
        manager.observe(stamped([0.3], keys=[42]))
        closed = manager.flush()
        assert [w.index for w in closed] == [3]
        assert closed[0].to_batch().keys.tolist() == [42]

    @pytest.mark.parametrize("window_seconds", [0.1, 4e-6, 2.56e-6])
    def test_every_window_start_maps_to_its_index(self, window_seconds):
        manager = WindowManager(window_seconds=window_seconds)
        k = np.arange(1, 1_000)
        indices = manager._window_of(k * window_seconds)
        assert np.array_equal(indices, k)

    def test_large_absolute_times_do_not_snap_interior_tuples(self):
        # The snap tolerance tracks float spacing, not timestamp
        # magnitude: at epoch-scale event times a tuple 50us before a
        # 1s boundary must stay in its own window.
        manager = WindowManager(window_seconds=1.0)
        indices = manager._window_of(np.array([86_400.0 - 5e-5,
                                               86_400.0]))
        assert indices.tolist() == [86_399, 86_400]

    def test_boundary_tuple_is_not_late(self):
        # Closing window 2 advances the watermark to its end: a tuple
        # stamped exactly at that boundary opens window 3, it is not a
        # late arrival into window 2.
        manager = WindowManager(window_seconds=0.1)
        manager.observe(stamped([0.05, 0.25]))
        manager.observe(stamped([3 * 0.1]))
        assert manager.late_tuples == 0
        assert 3 in manager.open_windows


class TestLateData:
    def test_late_tuples_dropped_and_counted(self):
        manager = WindowManager(window_seconds=1.0)
        manager.observe(stamped([0.5, 2.5]))  # closes window 0
        manager.observe(stamped([0.7]))       # late: window 0 gone
        assert manager.late_tuples == 1
        # Late data never resurrects the closed window.
        assert all(w.index != 0 for w in manager.flush())

    def test_in_order_stream_has_no_late_tuples(self):
        manager = WindowManager(window_seconds=1e-6)
        source = chunk_stream(
            TupleBatch.from_keys(
                np.arange(4000, dtype=np.uint64)), 1000)
        for events in source:
            manager.observe(events)
        manager.flush()
        assert manager.late_tuples == 0


class TestNonFiniteStamps:
    """A NaN or infinite event time is refused before it can move the
    watermark (+inf would make every later tuple late) or open a
    window (NaN lands in window -2**63)."""

    @pytest.mark.parametrize("times", [
        [1.5, np.inf], [-np.inf, 1.5], [np.nan], [1.5, np.nan, 1.6],
        [1.9, np.inf, 1.1], [1.9, -np.inf, 1.95], [np.inf, np.nan],
    ])
    def test_rejected_with_the_manager_untouched(self, times):
        manager = WindowManager(window_seconds=1.0)
        manager.observe(stamped([0.1, 1.4, 0.2]))

        def state():
            return (manager.watermark, manager.late_tuples,
                    manager.windows_closed, manager.open_windows)

        before = state()
        with pytest.raises(ValueError, match="event times must be finite"):
            manager.observe(stamped(times))
        assert state() == before
        # ... and it keeps serving: window 1 holds the one tuple it had.
        closed = manager.observe(stamped([2.5]))
        assert [(w.index, w.tuples) for w in closed] == [(1, 1)]


class TestOwnership:
    @pytest.mark.parametrize("times", [[0.1, 0.2, 0.3, 1.5],
                                       [0.3, 0.1, 0.2, 1.5]])
    def test_source_may_reuse_its_chunk_buffers(self, times):
        keys = np.arange(4, dtype=np.uint64)
        values = np.arange(4, dtype=np.int64) * 10
        events = TimestampedBatch(np.asarray(times),
                                  TupleBatch(keys, values))
        assert events.batch.keys is keys  # no copy on the way in
        closed = WindowManager(window_seconds=1.0).observe(events)
        keys[:] = 99
        values[:] = -1
        batch = closed[0].to_batch()
        assert batch.keys.tolist() == [0, 1, 2]
        assert batch.values.tolist() == [0, 10, 20]


class TestFlush:
    def test_flush_closes_everything_in_order(self):
        manager = WindowManager(window_seconds=1.0)
        closed = manager.observe(stamped([0.3, 1.4, 3.7]))
        assert [w.index for w in closed] == [0, 1]
        assert [w.index for w in manager.flush()] == [3]
        assert manager.open_windows == ()

    def test_total_tuples_conserved(self):
        manager = WindowManager(window_seconds=0.5)
        times = np.linspace(0.0, 4.0, 101)
        closed = manager.observe(stamped(times))
        closed += manager.flush()
        assert sum(w.tuples for w in closed) == 101
        assert manager.late_tuples == 0
        assert manager.windows_closed == len(closed)


class TestValidationAndAdapters:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            WindowManager(window_seconds=0.0)

    def test_timestamp_batch_uses_line_rate(self):
        network = NetworkModel(line_rate_gbps=100.0, tuple_bytes=8)
        batch = TupleBatch.from_keys(np.arange(10, dtype=np.uint64))
        stamped_batch = timestamp_batch(batch, network, start=1.0)
        spacing = 1.0 / network.tuples_per_second
        assert stamped_batch.timestamps[0] == 1.0
        assert np.allclose(np.diff(stamped_batch.timestamps), spacing)

    def test_arrival_stream_spans_evolving_segments(self):
        from repro.workloads.evolving import EvolvingZipfStream
        from repro.workloads.streams import arrival_stream

        stream = EvolvingZipfStream(alpha=2.0, interval_tuples=1_000,
                                    total_tuples=3_000, base_seed=5)
        stamped_segments = list(arrival_stream(stream))
        assert [len(s) for s in stamped_segments] == [1_000] * 3
        all_times = np.concatenate(
            [s.timestamps for s in stamped_segments])
        # Event time advances continuously across segment boundaries,
        # so windows can straddle them.
        assert np.all(np.diff(all_times) > 0)
        manager = WindowManager(window_seconds=1e-6)
        closed = []
        for events in stamped_segments:
            closed += manager.observe(events)
        closed += manager.flush()
        assert manager.windows_closed >= 2
        assert sum(w.tuples for w in closed) == 3_000
        assert manager.late_tuples == 0

    def test_chunk_stream_advances_clock_across_chunks(self):
        batch = TupleBatch.from_keys(np.arange(100, dtype=np.uint64))
        chunks = list(chunk_stream(batch, 30))
        assert [len(c) for c in chunks] == [30, 30, 30, 10]
        boundaries = [c.timestamps[0] for c in chunks]
        assert boundaries == sorted(boundaries)
        all_times = np.concatenate([c.timestamps for c in chunks])
        assert np.all(np.diff(all_times) > 0)
