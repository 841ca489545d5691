"""Network arrival model and stream-to-window adapters.

Fig. 9 uses "the memory interface ... to simulate the 100 Gbps network
interface": tuples arrive at line rate and the accelerator either keeps up
(satiates the network) or falls behind.  :class:`NetworkModel` converts
between the experiment's units — seconds of wall time, Gbps of line rate,
and tuple counts.

The serving layer (:mod:`repro.service`) consumes *timestamped* tuples so
its window manager can group them into event-time windows.
:class:`TimestampedBatch` pairs a :class:`TupleBatch` with per-tuple
event times, and :func:`timestamp_batch` / :func:`arrival_stream` turn
the existing generators into timestamped sources arriving at line rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.workloads.tuples import TupleBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.evolving import EvolvingZipfStream


@dataclass(frozen=True)
class NetworkModel:
    """A fixed-rate tuple source.

    Parameters
    ----------
    line_rate_gbps:
        Link speed in gigabits per second (100 in the paper).
    tuple_bytes:
        Wire size of one tuple (8 in the paper).
    """

    line_rate_gbps: float = 100.0
    tuple_bytes: int = 8

    def __post_init__(self) -> None:
        if self.line_rate_gbps <= 0:
            raise ValueError("line rate must be positive")
        if self.tuple_bytes <= 0:
            raise ValueError("tuple size must be positive")

    @property
    def tuples_per_second(self) -> float:
        """Arrival rate in tuples/s (1.5625 G/s for 100 Gbps, 8 B)."""
        return self.line_rate_gbps * 1e9 / (8 * self.tuple_bytes)

    def tuples_in(self, seconds: float) -> int:
        """Tuples arriving within ``seconds`` at line rate."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return int(self.tuples_per_second * seconds)

    def throughput_gbps(self, tuples: int, seconds: float) -> float:
        """Achieved throughput in Gbps for ``tuples`` over ``seconds``."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        return tuples * self.tuple_bytes * 8 / seconds / 1e9


@dataclass
class TimestampedBatch:
    """A :class:`TupleBatch` with per-tuple event times (seconds).

    The serving layer's window manager groups tuples by these timestamps;
    they are *event* time (when the tuple was produced at the source), not
    processing time, so replays are deterministic.
    """

    timestamps: np.ndarray
    batch: TupleBatch

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.timestamps.shape != self.batch.keys.shape:
            raise ValueError("one timestamp per tuple required")

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def span(self) -> tuple:
        """(min, max) event time of the batch (empty batches -> (0, 0))."""
        if len(self) == 0:
            return (0.0, 0.0)
        return (float(self.timestamps.min()), float(self.timestamps.max()))


def timestamp_batch(
    batch: TupleBatch,
    network: NetworkModel = NetworkModel(),
    start: float = 0.0,
) -> TimestampedBatch:
    """Stamp a batch with line-rate arrival times beginning at ``start``.

    Tuples arrive evenly spaced at ``network.tuples_per_second``, matching
    the paper's network-fed online scenario.
    """
    if start < 0:
        raise ValueError("start must be non-negative")
    spacing = 1.0 / network.tuples_per_second
    times = start + spacing * np.arange(len(batch), dtype=np.float64)
    return TimestampedBatch(times, batch)


def arrival_stream(
    stream: "EvolvingZipfStream",
    network: NetworkModel = NetworkModel(),
    start: float = 0.0,
) -> Iterator[TimestampedBatch]:
    """Adapt an evolving stream into timestamped line-rate arrivals.

    Yields one :class:`TimestampedBatch` per distribution segment; event
    time advances continuously across segments so downstream event-time
    windows can straddle segment boundaries.
    """
    clock = start
    spacing = 1.0 / network.tuples_per_second
    for segment in stream.segments():
        stamped = timestamp_batch(segment.batch, network, start=clock)
        clock += spacing * len(segment.batch)
        yield stamped


def chunk_stream(
    batch: TupleBatch,
    chunk_tuples: int,
    network: NetworkModel = NetworkModel(),
    start: float = 0.0,
) -> Iterator[TimestampedBatch]:
    """Deliver one dataset as a sequence of line-rate arrival chunks.

    The serving layer's clients usually hold a finite dataset but push it
    in bounded chunks (the DMA buffer size); this adapter produces that
    shape from any :class:`TupleBatch`.
    """
    if chunk_tuples <= 0:
        raise ValueError("chunk_tuples must be positive")
    spacing = 1.0 / network.tuples_per_second
    clock = start
    for lo in range(0, len(batch), chunk_tuples):
        piece = batch.slice(lo, min(lo + chunk_tuples, len(batch)))
        yield timestamp_batch(piece, network, start=clock)
        clock += spacing * len(piece)
