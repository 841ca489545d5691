"""``WindowManager.observe`` against a per-tuple oracle.

An in-order chunk is cut into one slice per window by one
``searchsorted`` per window boundary, each cut fixed up by a scalar
assignment rule; an out-of-order chunk is indexed and masked per
tuple.  The oracle below is the masked implementation applied to
*every* chunk (what ``observe`` was before the run path existed).  The
two must agree on everything a caller can see — the closed-window
sequence with keys and values in stream order, ``late_tuples``,
``windows_closed``, the watermark and the open set — for any window
width, time base, stamp pattern and chunking.
The run path rests on two facts, each its own property: the scalar rule
equals ``_window_of`` elementwise, and ``_window_of`` is monotone.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.service.windows import WindowManager
from repro.workloads.streams import TimestampedBatch
from repro.workloads.tuples import TupleBatch

#: Round widths, the boundary-test width whose multiples divide to
#: x.999…, and the serving layer's microsecond windows.
WIDTHS = [1.0, 0.1, 0.25, 3.0, 4e-6, 2.56e-6]

#: Zero, a negative base and epoch seconds (quotients near 2**50 with
#: microsecond windows, where a few ulp is a visible fraction).
BASES = [0.0, -5.0e3, 1.7e9]


class MaskedManager(WindowManager):
    """The reference: every chunk indexed and masked per tuple."""

    def observe(self, events):
        if len(events) == 0:
            return []
        ts = events.timestamps
        indices = self._window_of(ts)
        late = (indices + 1) * self.window_seconds <= self.watermark
        self.late_tuples += int(late.sum())
        fresh = ~late
        for index in np.unique(indices[fresh]):
            mask = fresh & (indices == index)
            self._ensure(int(index)).add(events.batch.keys[mask],
                                         events.batch.values[mask])
        self.watermark = max(self.watermark, float(ts.max()))
        return self._close_ready()


def nudge(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable floats up (down if < 0)."""
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        value = np.nextafter(value, toward)
    return float(value)


@st.composite
def stamps(draw, width, base, max_size=120):
    """Event times around ``base``: window interiors, exact window
    starts, and starts nudged a few ulp either way."""
    origin = round(base / width)
    interior = st.tuples(
        st.integers(0, 8), st.floats(0.0, 1.0, exclude_max=True),
    ).map(lambda kf: base + (kf[0] + kf[1]) * width)
    boundary = st.tuples(
        st.integers(0, 8), st.integers(-6, 6),
    ).map(lambda ku: nudge((origin + ku[0]) * width, ku[1]))
    return draw(st.lists(st.one_of(interior, boundary),
                         min_size=1, max_size=max_size))


@st.composite
def streams(draw):
    width = draw(st.sampled_from(WIDTHS))
    base = draw(st.sampled_from(BASES))
    times = np.asarray(draw(stamps(width, base)), dtype=np.float64)
    order = draw(st.sampled_from(["sorted", "jittered", "as-drawn"]))
    if order != "as-drawn":
        times = np.sort(times)
    if order == "jittered":
        jitter = draw(st.lists(st.floats(-0.7, 0.7), min_size=len(times),
                               max_size=len(times)))
        times = times + np.asarray(jitter) * width
    cuts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=12))
    return width, times, cuts


def chunks(times, cuts):
    """``times`` cut into consecutive chunks of the drawn sizes (the
    last size repeats); values number the tuples so order is visible."""
    keys = (np.arange(len(times), dtype=np.uint64) * 7919) % 13
    values = np.arange(len(times), dtype=np.int64)
    lo = 0
    for size in cuts + [cuts[-1]] * len(times):
        if lo >= len(times):
            return
        hi = lo + size
        yield TimestampedBatch(times[lo:hi],
                               TupleBatch(keys[lo:hi], values[lo:hi]))
        lo = hi


def visible(manager, closed):
    batches = [(window, window.to_batch()) for window in closed]
    return ([(w.index, w.start, w.end, w.closed,
              batch.keys.tolist(), batch.values.tolist())
             for w, batch in batches],
            manager.late_tuples, manager.windows_closed,
            manager.watermark, manager.open_windows)


@st.composite
def manager_and_stamps(draw):
    """A manager plus stamps near its window starts and far from them."""
    width = draw(st.sampled_from(WIDTHS))
    times = draw(stamps(width, draw(st.sampled_from(BASES)))) \
        + draw(st.lists(st.floats(-1e12, 1e12), max_size=20))
    return WindowManager(width), times


@settings(deadline=None, max_examples=150)
@given(stream=streams())
def test_observe_equals_the_per_tuple_oracle(stream):
    width, times, cuts = stream
    manager = WindowManager(width)
    oracle = MaskedManager(width)
    for events in chunks(times, cuts):
        assert visible(manager, manager.observe(events)) \
            == visible(oracle, oracle.observe(events))
    assert visible(manager, manager.flush()) \
        == visible(oracle, oracle.flush())


@settings(deadline=None, max_examples=150)
@given(drawn=manager_and_stamps())
def test_scalar_rule_equals_window_of_elementwise(drawn):
    manager, times = drawn
    vector = manager._window_of(np.asarray(times, dtype=np.float64))
    scalar = [manager._window_of_stamp(stamp) for stamp in times]
    assert vector.tolist() == scalar
    assert all(type(index) is int for index in scalar)


@settings(deadline=None, max_examples=150)
@given(drawn=manager_and_stamps())
def test_window_of_is_monotone_on_sorted_input(drawn):
    """The lemma the run path rests on: snapping near-boundary
    quotients to the nearest integer never reorders two stamps."""
    manager, times = drawn
    indices = manager._window_of(np.sort(np.asarray(times,
                                                    dtype=np.float64)))
    assert (np.diff(indices) >= 0).all()
