"""Evolving-skew streams for the online-processing experiment (Fig. 9).

The paper emulates an online scenario: HISTO with 16P+15S fed at network
rate, Zipf factor fixed at 3, "vary[ing] the seeds of the dataset
generator for generating different workload distributions" every *time
interval* from 512 ms down to 16 ns.  Each seed change moves the hot keys,
so the previously overloaded PriPE changes and the SecPE scheduling plan
becomes stale.

:class:`EvolvingZipfStream` produces the corresponding sequence of
segments: each segment is a Zipf dataset with a fresh seed, sized to the
number of tuples that arrive within one interval at the given rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator


@dataclass
class StreamSegment:
    """One constant-distribution stretch of an evolving stream."""

    index: int
    seed: int
    batch: TupleBatch


@dataclass
class EvolvingZipfStream:
    """Stream whose hot-key set changes every ``interval_tuples`` tuples.

    Parameters
    ----------
    alpha:
        Zipf factor of every segment (3.0 in Fig. 9).
    interval_tuples:
        Tuples per distribution interval — the experiment's x-axis value
        converted from seconds via the arrival rate.
    total_tuples:
        Stream length.
    universe / base_seed / tuple_bytes:
        Forwarded to the per-segment :class:`ZipfGenerator`.
    seed_cycle:
        When set, segment seeds cycle through ``seed_cycle`` distinct
        values instead of being fresh forever — the recurring-workload
        shape of diurnal tenants and A/B flips.  None (default) keeps
        every segment's seed unique, as in Fig. 9.
    """

    alpha: float
    interval_tuples: int
    total_tuples: int
    universe: int = 1 << 20
    base_seed: int = 7
    tuple_bytes: int = 8
    seed_cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.interval_tuples <= 0:
            raise ValueError("interval_tuples must be positive")
        if self.total_tuples <= 0:
            raise ValueError("total_tuples must be positive")
        if self.seed_cycle is not None and self.seed_cycle <= 0:
            raise ValueError("seed_cycle must be positive when set")

    @property
    def num_segments(self) -> int:
        """Number of distribution intervals in the stream."""
        return -(-self.total_tuples // self.interval_tuples)

    def segments(self) -> Iterator[StreamSegment]:
        """Yield the stream segment by segment (lazily generated)."""
        produced = 0
        index = 0
        while produced < self.total_tuples:
            count = min(self.interval_tuples, self.total_tuples - produced)
            period = index if self.seed_cycle is None \
                else index % self.seed_cycle
            seed = self.base_seed + period * 1_000_003
            generator = ZipfGenerator(
                alpha=self.alpha,
                universe=self.universe,
                seed=seed,
                tuple_bytes=self.tuple_bytes,
            )
            yield StreamSegment(index, seed, generator.generate(count))
            produced += count
            index += 1

    def materialize(self) -> TupleBatch:
        """Concatenate all segments into one batch (small streams only)."""
        batches: List[TupleBatch] = [seg.batch for seg in self.segments()]
        keys = np.concatenate([b.keys for b in batches])
        values = np.concatenate([b.values for b in batches])
        return TupleBatch(keys, values, self.tuple_bytes)
