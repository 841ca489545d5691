"""Heavy hitter detection (HHD) — paper Table I.

"Detects heavy hitters in the data streams with the count-min sketch."
Every PE owns a private count-min sketch covering its key range plus a
candidate table (the sketch-alongside-candidates organisation of Tong et
al. [19], the paper's RTL comparator with a single PE).  Because routing
is by key, all updates for one key land in one PriPE's sketch — or, under
skew handling, are split between the PriPE and its SecPEs and re-combined
by the merger (count-min sketches merge by element-wise addition, and
min-estimates only improve after merging).

The paper's uniform-comparison dataset has "half of the tuples with the
same key" — a single guaranteed heavy hitter — which
:func:`half_duplicate_stream` generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.fastpath import stable_order
from repro.core.kernel import KernelSpec
from repro.hashing.family import PairwiseFamily
from repro.resources.estimator import AppResourceProfile
from repro.workloads.tuples import TupleBatch


@dataclass
class SketchBuffer:
    """One PE's private state: a count-min sketch and candidate table."""

    cms: np.ndarray
    candidates: Dict[int, int] = field(default_factory=dict)


class HeavyHitterKernel(KernelSpec):
    """Count-min-sketch heavy hitter detection.

    Parameters
    ----------
    depth:
        Sketch rows d (independent hash functions).
    width:
        Sketch columns per PE slice.
    threshold:
        Absolute count above which a key is a heavy hitter.
    track_fraction:
        Candidates are tracked once their estimate reaches
        ``track_fraction * threshold``; below 1.0 this compensates for
        counts split across a PriPE and its SecPEs between merges.
    pripes:
        M — PE count; keys are routed by their low bits.
    seed:
        Seeds the hash family (synthesis-time constants).
    """

    decomposable = True
    # A key's count must accumulate in ONE sketch per stream segment:
    # splitting its tuples across independent workers dilutes every
    # per-worker estimate below the detection threshold.  The fleet
    # routes such a job by key, so each window's tuples of a key meet
    # in one worker's segment; hitters are detected per segment.
    splittable = False

    def __init__(
        self,
        depth: int = 4,
        width: int = 1024,
        threshold: int = 256,
        track_fraction: float = 0.25,
        pripes: int = 16,
        seed: int = 0xC0FFEE,
    ) -> None:
        if depth <= 0 or width <= 0:
            raise ValueError("sketch dimensions must be positive")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0.0 < track_fraction <= 1.0:
            raise ValueError("track_fraction must be in (0, 1]")
        self.depth = depth
        self.width = width
        self.threshold = threshold
        self.track_fraction = track_fraction
        self.pripes = pripes
        self.family = PairwiseFamily(depth, width, seed=seed)

    # -- KernelSpec ----------------------------------------------------
    def route(self, key: int) -> int:
        return key % self.pripes

    def route_array(self, keys: np.ndarray) -> np.ndarray:
        return self.pripe_of(np.asarray(keys, dtype=np.uint64))

    def make_buffer(self) -> SketchBuffer:
        return SketchBuffer(
            cms=np.zeros((self.depth, self.width), dtype=np.int64)
        )

    def process(self, buffer: SketchBuffer, key: int, value: int) -> None:
        estimate = None
        for row in range(self.depth):
            col = self.family.hash(row, key)
            buffer.cms[row, col] += 1
            cell = buffer.cms[row, col]
            estimate = cell if estimate is None else min(estimate, cell)
        if estimate is not None and (
            estimate >= self.track_fraction * self.threshold
        ):
            buffer.candidates[key] = int(estimate)

    def process_shard(self, keys: np.ndarray,
                      values: np.ndarray) -> Tuple[np.ndarray, Dict[int, int]]:
        # Exact shard replay of the per-tuple loop on fresh sketches.
        # The running estimate a tuple sees is, per row, its 1-based
        # rank among this shard's tuples hitting the same cell — a
        # (PE, column) pair of the sketches laid side by side;
        # estimates are monotone over time, so a key's candidacy (and
        # stored estimate) is decided at its *last* occurrence — both
        # are recoverable without stepping tuples.
        keys = np.asarray(keys, dtype=np.uint64)
        destinations = self.route_array(keys)
        n = keys.size
        base = destinations * self.width
        sketches = np.zeros((self.depth, self.pripes, self.width),
                            dtype=np.int64)
        counters = sketches.reshape(self.depth, -1)  # a view: (PE, column)
        estimates = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        positions = np.arange(n)
        new_run = np.ones(n, dtype=bool)
        running = np.empty(n, dtype=np.int64)
        for row in range(self.depth):
            cells = base + self.family.hash_array(row, keys)
            order = stable_order(cells, self.pripes * self.width)
            sorted_cells = cells[order]
            np.not_equal(sorted_cells[1:], sorted_cells[:-1],
                         out=new_run[1:])
            running[order] = positions + 1 - np.maximum.accumulate(
                np.where(new_run, positions, 0))
            np.minimum(estimates, running, out=estimates)
            np.add.at(counters[row], cells, 1)
        # Each PE's thresholds are evaluated on its private sketch.
        buffers = [SketchBuffer(cms=sketches[:, pe])
                   for pe in range(self.pripes)]
        reversed_uniques, reversed_first = np.unique(keys[::-1],
                                                     return_index=True)
        last_seen = n - 1 - reversed_first
        final = estimates[last_seen]
        tracked = final >= self.track_fraction * self.threshold
        # Ascending key order within each PE's table.
        for key, pe, estimate in zip(
                reversed_uniques[tracked].tolist(),
                destinations[last_seen[tracked]].tolist(),
                final[tracked].tolist()):
            buffers[pe].candidates[key] = estimate
        return destinations, self.collect(buffers)

    def merge_into(self, primary: SketchBuffer,
                   secondary: SketchBuffer) -> None:
        primary.cms += secondary.cms
        for key in secondary.candidates:
            primary.candidates[key] = self.estimate_from(primary.cms, key)
        # Refresh primary candidates against the merged sketch too.
        for key in list(primary.candidates):
            primary.candidates[key] = self.estimate_from(primary.cms, key)

    def estimate_from(self, cms: np.ndarray, key: int) -> int:
        """Count-min point estimate of ``key`` from sketch ``cms``."""
        return int(
            min(cms[row, self.family.hash(row, key)]
                for row in range(self.depth))
        )

    def combine_results(self, first: Dict[int, int],
                        second: Dict[int, int]) -> Dict[int, int]:
        """Per-segment hitter estimates sum across stream segments.

        Count-min point estimates over disjoint segments are each upper
        bounds on the segment's true count, so their sum stays an upper
        bound on the total.  A key that never crosses the threshold
        *within a single segment* is not recovered — the standard
        windowed-sketch approximation for streaming deployments.
        """
        combined = dict(first)
        for key, estimate in second.items():
            combined[key] = combined.get(key, 0) + estimate
        return combined

    def collect(self, pripe_buffers: List[SketchBuffer]) -> Dict[int, int]:
        """Heavy hitters: candidates whose final estimate >= threshold."""
        hitters: Dict[int, int] = {}
        for buffer in pripe_buffers:
            for key in buffer.candidates:
                estimate = self.estimate_from(buffer.cms, key)
                if estimate >= self.threshold:
                    hitters[key] = estimate
        return hitters

    def golden(self, keys: np.ndarray, values: np.ndarray) -> Dict[int, int]:
        """Reference detection using the same per-PE sketch construction.

        Vectorised: updates each PE's sketch with numpy scatter-adds, then
        evaluates every distinct key against its PE's sketch.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        routes = self.route_array(keys)
        hitters: Dict[int, int] = {}
        for pe in range(self.pripes):
            pe_keys = keys[routes == pe]
            if pe_keys.size == 0:
                continue
            cms = np.zeros((self.depth, self.width), dtype=np.int64)
            for row in range(self.depth):
                cols = self.family.hash_array(row, pe_keys)
                np.add.at(cms[row], cols, 1)
            for key in np.unique(pe_keys):
                estimate = self.estimate_from(cms, int(key))
                if estimate >= self.threshold:
                    hitters[int(key)] = estimate
        return hitters

    def resource_profile(self) -> AppResourceProfile:
        """Component costs for the resource estimator."""
        return AppResourceProfile(
            name="hhd",
            prepe_alms=700,
            prepe_dsp=2,
            pe_alms=2_200,
            pe_dsp=4 * self.depth,
            buffer_bits_per_pe=self.depth * self.width * 32,
        )


def golden_heavy_hitters(keys: np.ndarray, threshold: int) -> Dict[int, int]:
    """Exact heavy hitters (true counts), the detection ground truth."""
    keys = np.asarray(keys, dtype=np.uint64)
    uniques, counts = np.unique(keys, return_counts=True)
    return {
        int(k): int(c) for k, c in zip(uniques, counts) if c >= threshold
    }


def half_duplicate_stream(count: int, seed: int = 11,
                          hot_key: int = 0xDEAD) -> TupleBatch:
    """The paper's HHD comparison dataset: half the tuples share one key.

    The rest are drawn uniformly from a large universe (§VI-B: "the
    dataset of HHD has half of the tuples with the same key").
    """
    if count <= 1:
        raise ValueError("count must be > 1")
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    hot_positions = rng.random(count) < 0.5
    keys[hot_positions] = hot_key
    return TupleBatch.from_keys(keys)
