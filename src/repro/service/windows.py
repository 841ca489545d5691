"""Event-time window manager: tuples in, closed segments out.

The serving layer aggregates each job's incoming tuples into fixed-width
event-time windows (the OpenDT sim-worker's window lifecycle, scaled to
microsecond FPGA feeds).  A window ``w`` covers
``[w * size, (w + 1) * size)`` event seconds; the *watermark* is the
largest event time observed so far, and a window closes once the
watermark passes its end.  Closed windows become
:class:`~repro.workloads.tuples.TupleBatch` segments that feed the
pipeline workers through the fleet balancer.

A tuple whose window ends at or before the watermark is *late*: it is
counted and dropped rather than reopening emitted results (a deliberate
at-window semantics — re-emission would break the per-window
accumulation the streaming sessions rely on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.workloads.streams import TimestampedBatch
from repro.workloads.tuples import TupleBatch


@dataclass
class EventWindow:
    """One fixed-width event-time window accumulating tuples."""

    index: int
    start: float
    end: float
    closed: bool = False
    _keys: List[np.ndarray] = field(default_factory=list)
    _values: List[np.ndarray] = field(default_factory=list)

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        if self.closed:
            raise RuntimeError(
                f"window {self.index} is closed; late data must be "
                "dropped by the manager")
        self._keys.append(keys)
        self._values.append(values)

    @property
    def tuples(self) -> int:
        return sum(len(chunk) for chunk in self._keys)

    def to_batch(self) -> TupleBatch:
        """Materialise the window's tuples as one segment batch."""
        if not self._keys:
            return TupleBatch(np.zeros(0, dtype=np.uint64),
                              np.zeros(0, dtype=np.int64))
        if len(self._keys) == 1:  # already the window's own copy
            return TupleBatch(self._keys[0], self._values[0])
        return TupleBatch(np.concatenate(self._keys),
                          np.concatenate(self._values))


class WindowManager:
    """Groups a timestamped stream into closable event-time windows.

    Window assignment is monotone in event time, so ``observe`` cuts a
    chunk with non-decreasing stamps into one slice per window, with a
    ``searchsorted`` per window boundary inside the chunk; only an
    out-of-order chunk is indexed and masked per tuple.  Same windows,
    tuple order and late count either way.  A window copies what it
    takes (sources may reuse chunk buffers); a NaN or infinite stamp
    raises ``ValueError`` and leaves the manager untouched.

    Parameters
    ----------
    window_seconds:
        Event-time width of each window.
    """

    def __init__(self, window_seconds: float) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = window_seconds
        self._open: Dict[int, EventWindow] = {}
        self.watermark = -math.inf
        self.late_tuples = 0
        self.windows_closed = 0

    def _window_of(self, timestamps: np.ndarray) -> np.ndarray:
        quotient = np.asarray(timestamps,
                              dtype=np.float64) / self.window_seconds
        indices = np.floor(quotient).astype(np.int64)
        # Round-then-floor: a quotient within a few ulp of an integer
        # is that integer — a tuple stamped exactly at a window start
        # (0.3 with 0.1s windows divides to 2.999...) belongs to the
        # window it opens, not the previous one.  The tolerance tracks
        # float spacing at the quotient's magnitude, so large absolute
        # event times (epoch seconds) never snap genuinely-interior
        # tuples across a boundary.
        nearest = np.rint(quotient)
        snapped = np.abs(quotient - nearest) <= (
            4.0 * np.spacing(np.abs(quotient)))
        indices[snapped] = nearest[snapped].astype(np.int64)
        return indices

    def _window_of_stamp(self, timestamp: float) -> int:
        """Scalar twin of :meth:`_window_of`: same IEEE operations."""
        quotient = timestamp / self.window_seconds
        nearest = round(quotient)
        if abs(quotient - nearest) <= 4.0 * math.ulp(abs(quotient)):
            return nearest
        return math.floor(quotient)

    def _ensure(self, index: int) -> EventWindow:
        window = self._open.get(index)
        if window is None:
            window = EventWindow(
                index=index,
                start=index * self.window_seconds,
                end=(index + 1) * self.window_seconds,
            )
            self._open[index] = window
        return window

    def observe(self, events: TimestampedBatch) -> List[EventWindow]:
        """Ingest one timestamped batch; return newly closed windows.

        Closed windows come back oldest-first so downstream segment
        indices stay monotone in event time.
        """
        if len(events) == 0:
            return []
        ts = events.timestamps
        keys, values = events.batch.keys, events.batch.values
        cutoff = self.watermark
        # NaN fails the ordering test and ±inf can only sit at the ends
        # of an ordered chunk; min/max propagate both.
        in_order = (ts[1:] >= ts[:-1]).all()
        oldest, newest = ((ts.item(0), ts.item(-1)) if in_order
                          else (float(ts.min()), float(ts.max())))
        if not (math.isfinite(oldest) and math.isfinite(newest)):
            raise ValueError("event times must be finite")
        if in_order:
            for index, lo, hi in self._runs(ts):
                if (index + 1) * self.window_seconds <= cutoff:
                    self.late_tuples += hi - lo
                else:
                    self._ensure(index).add(keys[lo:hi].copy(),
                                            values[lo:hi].copy())
        else:
            indices = self._window_of(ts)
            late = (indices + 1) * self.window_seconds <= cutoff
            self.late_tuples += int(late.sum())
            fresh = ~late
            for index in np.unique(indices[fresh]):
                mask = fresh & (indices == index)
                self._ensure(int(index)).add(keys[mask], values[mask])
        self.watermark = max(self.watermark, newest)
        return self._close_ready()

    def _runs(self, ts: np.ndarray) -> Iterator[Tuple[int, int, int]]:
        """``(window, lo, hi)`` slices of a non-decreasing chunk.  The
        windows of the first and last stamps bound it; each cut inside
        is one ``searchsorted`` of the next window's start, which the
        scalar rule then fixes up, moving past a run of equal stamps at
        a time (a stamp within a few ulp of a boundary may sit on
        either side of it)."""
        window_of, stamp = self._window_of_stamp, ts.item
        index, last, lo = window_of(stamp(0)), window_of(stamp(-1)), 0
        while index != last:
            # ts[lo] is in `index` and ts[-1] is not: the cut lies
            # strictly between them.
            hi = max(lo + 1, int(ts.searchsorted(
                (index + 1) * self.window_seconds)))
            while window_of(stamp(hi - 1)) != index:
                hi = int(ts.searchsorted(stamp(hi - 1)))
            following = window_of(stamp(hi))
            while following == index:
                hi = int(ts.searchsorted(stamp(hi), "right"))
                following = window_of(stamp(hi))
            yield index, lo, hi
            lo, index = hi, following
        yield index, lo, len(ts)

    def _close_ready(self) -> List[EventWindow]:
        ready = sorted(
            index for index, window in self._open.items()
            if window.end <= self.watermark
        )
        return [self._close(index) for index in ready]

    def _close(self, index: int) -> EventWindow:
        window = self._open.pop(index)
        window.closed = True
        self.windows_closed += 1
        return window

    def flush(self) -> List[EventWindow]:
        """End of stream: close every open window, oldest first."""
        return [self._close(index) for index in sorted(self._open)]

    @property
    def open_windows(self) -> Tuple[int, ...]:
        """Indices of currently open windows (diagnostics)."""
        return tuple(sorted(self._open))
