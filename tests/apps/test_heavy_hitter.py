"""Heavy hitter detection: CMS properties, detection quality, merging."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.heavy_hitter import (
    HeavyHitterKernel,
    golden_heavy_hitters,
    half_duplicate_stream,
)


def test_validation():
    with pytest.raises(ValueError):
        HeavyHitterKernel(depth=0)
    with pytest.raises(ValueError):
        HeavyHitterKernel(threshold=0)
    with pytest.raises(ValueError):
        HeavyHitterKernel(track_fraction=0.0)
    with pytest.raises(ValueError):
        half_duplicate_stream(1)


class TestSketchProperties:
    def test_cms_never_underestimates(self):
        """The count-min invariant: estimate >= true count."""
        kernel = HeavyHitterKernel(depth=4, width=256, threshold=10,
                                   pripes=16)
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 500, size=5_000, dtype=np.uint64)
        buffer = kernel.make_buffer()
        for key in keys.tolist():
            kernel.process(buffer, key, 1)
        uniques, counts = np.unique(keys, return_counts=True)
        for key, count in zip(uniques.tolist(), counts.tolist()):
            assert kernel.estimate_from(buffer.cms, key) >= count

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=1, max_value=1000))
    def test_property_single_key_estimate_exact_enough(self, n):
        """With one key and an empty sketch the estimate is exact."""
        kernel = HeavyHitterKernel(depth=4, width=512, threshold=10)
        buffer = kernel.make_buffer()
        for _ in range(n):
            kernel.process(buffer, 12345, 1)
        assert kernel.estimate_from(buffer.cms, 12345) == n

    def test_merge_adds_sketches_and_rechecks_candidates(self):
        kernel = HeavyHitterKernel(depth=4, width=512, threshold=100,
                                   track_fraction=0.25)
        a = kernel.make_buffer()
        b = kernel.make_buffer()
        # 60 + 60 occurrences split across two buffers: neither alone
        # crosses the threshold, together they do.
        for _ in range(60):
            kernel.process(a, 777, 1)
            kernel.process(b, 777, 1)
        kernel.merge_into(a, b)
        assert kernel.estimate_from(a.cms, 777) == 120
        assert a.candidates[777] == 120


class TestDetection:
    def test_half_duplicate_stream_detects_the_hot_key(self):
        """The paper's HHD dataset: half the tuples share one key."""
        batch = half_duplicate_stream(20_000, seed=2, hot_key=0xDEAD)
        kernel = HeavyHitterKernel(depth=4, width=1024, threshold=5_000,
                                   pripes=16)
        hitters = kernel.golden(batch.keys, batch.values)
        assert 0xDEAD in hitters
        assert hitters[0xDEAD] >= 9_000

    def test_no_false_negatives_vs_exact(self):
        rng = np.random.default_rng(9)
        keys = np.concatenate([
            rng.integers(0, 1 << 30, size=8_000, dtype=np.uint64),
            np.full(1_500, 42, dtype=np.uint64),
            np.full(1_200, 43, dtype=np.uint64),
        ])
        rng.shuffle(keys)
        kernel = HeavyHitterKernel(depth=4, width=2048, threshold=1_000,
                                   pripes=16)
        detected = kernel.golden(keys, np.ones(len(keys)))
        exact = golden_heavy_hitters(keys, threshold=1_000)
        assert set(exact) <= set(detected)       # CMS can only over-report

    def test_estimates_upper_bound_truth(self):
        keys = np.concatenate([
            np.full(500, 7, dtype=np.uint64),
            np.arange(1000, dtype=np.uint64),
        ])
        kernel = HeavyHitterKernel(depth=4, width=1024, threshold=400,
                                   pripes=16)
        detected = kernel.golden(keys, np.ones(len(keys)))
        assert detected[7] >= 500

    def test_golden_exact_counts(self):
        keys = np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64)
        assert golden_heavy_hitters(keys, 2) == {1: 3, 2: 2}


def looped_items(kernel, keys):
    """The per-tuple ``process`` + ``collect`` answer as ordered items:
    PE-major as ``collect`` walks the PEs, ascending key within a PE
    (the shard hook's order; the loop's own is insertion order)."""
    buffers = [kernel.make_buffer() for _ in range(kernel.pripes)]
    for key in keys.tolist():
        kernel.process(buffers[kernel.route(key)], key, 1)
    return sorted(kernel.collect(buffers).items(),
                  key=lambda item: (kernel.route(item[0]), item[0]))


class TestShardHook:
    """``process_shard`` settles a key's candidacy from its own count
    unless it reaches the threshold below the track line; those keys
    are replayed exactly up to their last occurrence."""

    # Track line 4: a key counted once is tracked only by collisions.
    NARROW = dict(depth=2, width=4, threshold=8, track_fraction=0.5,
                  pripes=4)

    def collider(self, kernel, key):
        """The first other key of ``key``'s PE on all of its cells."""
        return next(
            other for other in range(key + kernel.pripes, 1 << 16,
                                     kernel.pripes)
            if all(kernel.family.hash(row, other) == kernel.family.hash(
                row, key) for row in range(kernel.depth)))

    def check(self, kernel, keys):
        keys = np.array(keys, dtype=np.uint64)
        destinations, hitters = kernel.process_shard(keys,
                                                     np.ones_like(keys))
        assert destinations.dtype == np.int64
        assert destinations.tolist() == [kernel.route(key)
                                         for key in keys.tolist()]
        assert list(hitters.items()) == looped_items(kernel, keys)
        return hitters

    def test_collisions_after_the_last_occurrence_do_not_track(self):
        kernel = HeavyHitterKernel(**self.NARROW)
        late = self.collider(kernel, 5)
        # Key 5's cells end at 8 >= threshold, but they held 1 when 5
        # was last seen: never a candidate, so not reported.
        assert self.check(kernel, [5] + [late] * 7) == {late: 8}

    def test_collisions_before_the_last_occurrence_track(self):
        kernel = HeavyHitterKernel(**self.NARROW)
        early = self.collider(kernel, 5)
        # Key 5 is counted once, below the track line, but its cells
        # already hold 8 when it arrives: tracked and reported.
        hitters = self.check(kernel, [early] * 7 + [5])
        assert list(hitters.items()) == [(5, 8), (early, 8)]

    def test_empty_shard(self):
        kernel = HeavyHitterKernel(**self.NARROW)
        destinations, hitters = kernel.process_shard(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        assert hitters == {}
        assert destinations.dtype == np.int64 and destinations.size == 0

    def test_width_one_collides_every_key(self):
        kernel = HeavyHitterKernel(depth=3, width=1, threshold=6,
                                   track_fraction=0.5, pripes=4)
        # PE 1 sees 1, 5, 1, 9, 13, 1 (total 6, track line 3): key 5
        # has seen 2 tuples at its last occurrence, 9 and 13 have
        # seen 4 and 5.
        hitters = self.check(kernel, [0, 4, 8, 0, 1, 5, 4, 12, 1, 9, 13,
                                      0, 2, 6, 4, 8, 16, 3, 1])
        assert list(hitters.items()) == [
            (0, 10), (4, 10), (8, 10), (12, 10), (16, 10),
            (1, 6), (9, 6), (13, 6)]


def test_half_duplicate_ratio_is_about_half():
    batch = half_duplicate_stream(50_000, seed=5, hot_key=99)
    hot = int((batch.keys == 99).sum())
    assert 0.45 < hot / 50_000 < 0.55
