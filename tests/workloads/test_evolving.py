"""Evolving-skew streams (Fig. 9 workload)."""

import numpy as np
import pytest

from repro.workloads.evolving import EvolvingZipfStream


def test_segment_count_and_sizes():
    stream = EvolvingZipfStream(alpha=3.0, interval_tuples=1000,
                                total_tuples=2500)
    segments = list(stream.segments())
    assert stream.num_segments == 3
    assert [len(s.batch) for s in segments] == [1000, 1000, 500]

def test_validation():
    with pytest.raises(ValueError):
        EvolvingZipfStream(alpha=3.0, interval_tuples=0, total_tuples=10)
    with pytest.raises(ValueError):
        EvolvingZipfStream(alpha=3.0, interval_tuples=10, total_tuples=0)

def test_segments_have_distinct_seeds_and_hot_keys():
    stream = EvolvingZipfStream(alpha=3.0, interval_tuples=3000,
                                total_tuples=9000, base_seed=1)
    segments = list(stream.segments())
    seeds = {s.seed for s in segments}
    assert len(seeds) == 3
    hot_pes = []
    for seg in segments:
        dst = (seg.batch.keys % np.uint64(16)).astype(int)
        hot_pes.append(int(np.bincount(dst, minlength=16).argmax()))
    # With alpha=3 each segment is dominated by one PE; the dominant PE
    # should move at least once across three segments.
    assert len(set(hot_pes)) >= 2

def test_seed_cycle_repeats_segments():
    stream = EvolvingZipfStream(alpha=3.0, interval_tuples=500,
                                total_tuples=2500, seed_cycle=2)
    segments = list(stream.segments())
    seeds = [s.seed for s in segments]
    assert seeds[0::2] == [seeds[0]] * 3
    assert seeds[1::2] == [seeds[1]] * 2
    assert seeds[0] != seeds[1]
    assert np.array_equal(segments[0].batch.keys, segments[2].batch.keys)
    assert np.array_equal(segments[1].batch.keys, segments[3].batch.keys)

def test_seed_cycle_longer_than_the_stream_changes_nothing():
    plain = EvolvingZipfStream(alpha=2.0, interval_tuples=400,
                               total_tuples=1200)
    cycled = EvolvingZipfStream(alpha=2.0, interval_tuples=400,
                                total_tuples=1200, seed_cycle=3)
    assert [s.seed for s in plain.segments()] \
        == [s.seed for s in cycled.segments()]
    assert np.array_equal(plain.materialize().keys,
                          cycled.materialize().keys)

@pytest.mark.parametrize("seed_cycle", [0, -1])
def test_seed_cycle_validation(seed_cycle):
    with pytest.raises(ValueError, match="seed_cycle must be positive"):
        EvolvingZipfStream(alpha=3.0, interval_tuples=10, total_tuples=10,
                           seed_cycle=seed_cycle)

def test_materialize_concatenates_everything():
    stream = EvolvingZipfStream(alpha=1.0, interval_tuples=400,
                                total_tuples=1000)
    batch = stream.materialize()
    assert len(batch) == 1000
