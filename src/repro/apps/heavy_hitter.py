"""Heavy hitter detection (HHD) — paper Table I.

"Detects heavy hitters in the data streams with the count-min sketch."
Every PE owns a private count-min sketch covering its key range plus a
candidate table (the sketch-alongside-candidates organisation of Tong et
al. [19], the paper's RTL comparator with a single PE).  Because routing
is by key, all updates for one key land in one PriPE's sketch — or, under
skew handling, are split between the PriPE and its SecPEs and re-combined
by the merger (count-min sketches merge by element-wise addition, and
min-estimates only improve after merging).

The fast-path hook :meth:`HeavyHitterKernel.process_shard` works on a
shard's distinct keys and is bit-identical to the per-tuple loop on
fresh sketches, by two exact facts.  A key's cells depend on the key
alone (its PriPE and ``h_r(key)``), so a cell's final total is the summed
count of the distinct keys mapping to it, and a key's minimum over its
cells is the estimate ``collect`` reads.  Estimates only grow, so a key's
candidacy is decided at its last occurrence, where each of its cells
holds at least its own count: a key counted ``track_fraction *
threshold`` times is tracked.  Only a key reaching the threshold below
that line, through collisions, is replayed up to its last occurrence.

A fleet does not split an HHD window: the whole window goes to one
worker (:meth:`~repro.service.balancer.SkewAwareBalancer.route`), so
all of a key's updates in the window meet in one PE's sketch on that
worker, and the window pass is one ``process_shard`` call over its one
lane (the default :meth:`~repro.core.kernel.KernelSpec.process_lanes`).

The paper's uniform-comparison dataset has "half of the tuples with the
same key" — a single guaranteed heavy hitter — which
:func:`half_duplicate_stream` generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

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
    # sends each window of such a job whole to one worker, so a window
    # is one segment; hitters are detected per segment.
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
        # Scratch cell totals for process_shard.
        self._totals = np.empty(0, dtype=np.int64)

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
        # The hitters, bit-identical to the per-tuple loop on fresh
        # sketches, by the module docstring's two facts.
        keys = np.asarray(keys, dtype=np.uint64)
        uniques, counts = np.unique(keys, return_counts=True)
        pes = self.pripe_of(uniques)
        plane = self.pripes * self.width
        cells = self.family.hash_rows(uniques) + (
            np.arange(self.depth)[:, None] * plane + pes * self.width)
        # The cells live in a scratch array kept across calls: a fresh
        # one costs more to allocate than the counting.  Only the keys'
        # cells are zeroed, then counted and read, so no other cell
        # need ever be cleared.  The scatter-add takes flat cells and
        # tiled counts: a 2-D index with broadcast counts reads past
        # the counts on NumPy 2.4.
        if self._totals.size < self.depth * plane:
            self._totals = np.empty(self.depth * plane, dtype=np.int64)
        totals = self._totals
        totals[cells] = 0
        np.add.at(totals, cells.ravel(), np.tile(counts, self.depth))
        final = totals[cells].min(axis=0)
        line = self.track_fraction * self.threshold
        hitters = final >= self.threshold
        inverse = None
        for at in np.flatnonzero(hitters & (counts < line)).tolist():
            if inverse is None:
                # Each tuple's distinct key, found only for a doubtful
                # key: most shards have none.
                inverse = np.searchsorted(uniques, keys)
            upto = np.flatnonzero(inverse == at)[-1] + 1
            running = cells[:, inverse[:upto]] == cells[:, at, None]
            hitters[at] = running.sum(axis=1).min() >= line
        # PE-major, ascending key within a PE's table.
        chosen = np.flatnonzero(hitters)
        chosen = chosen[np.argsort(pes[chosen], kind="stable")]
        return self.route_array(keys), dict(zip(uniques[chosen].tolist(),
                                                final[chosen].tolist()))

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

        Vectorised: hashes each PE's distinct keys once for every row,
        scatter-adds the PE's tuples into its own dense sketch, then
        reads every distinct key's estimate with one gather.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        routes = self.route_array(keys)
        rows = np.arange(self.depth)[:, None]
        hitters: Dict[int, int] = {}
        for pe in range(self.pripes):
            uniques, inverse = np.unique(keys[routes == pe],
                                         return_inverse=True)
            cols = self.family.hash_rows(uniques)
            cms = np.zeros((self.depth, self.width), dtype=np.int64)
            np.add.at(cms, (rows, cols[:, inverse]), 1)
            estimates = cms[rows, cols].min(axis=0)
            hit = estimates >= self.threshold
            hitters.update(zip(uniques[hit].tolist(),
                               estimates[hit].tolist()))
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
