"""Multiply-shift hashing."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.hashing.multiply_shift import (
    DEFAULT_MULTIPLIER,
    multiply_shift,
    multiply_shift_array,
    multiply_shift_range,
)
from repro.service.balancer import FLEET_SHARD_SEED
from repro.service.shm import CTRL_SLOTS


def test_validation():
    with pytest.raises(ValueError):
        multiply_shift(1, 0)
    with pytest.raises(ValueError):
        multiply_shift(1, 64)              # capped at 63 (signed lanes)
    with pytest.raises(ValueError):
        multiply_shift(1, 8, a=2)          # even multiplier
    with pytest.raises(ValueError):
        multiply_shift_array(np.array([1], np.uint64), 8, a=4)

@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=1, max_value=63))
def test_property_scalar_vector_agree_and_in_range(key, bits):
    scalar = multiply_shift(key, bits)
    vector = multiply_shift_array(np.array([key], dtype=np.uint64), bits)
    assert scalar == int(vector[0])
    assert 0 <= scalar < (1 << bits)

def test_wraparound_needs_no_overflow_guard():
    """Every product of a key >= 2^63 overflows 64 bits.  Array integer
    arithmetic wraps without a RuntimeWarning (only NumPy scalars warn),
    so the array form runs unguarded and still equals the scalar."""
    keys = [1 << 63, (1 << 63) + 1, 0xDEADBEEFCAFEF00D, (1 << 64) - 2,
            (1 << 64) - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hashed = multiply_shift_array(np.array(keys, dtype=np.uint64), 10)
    assert hashed.tolist() == [multiply_shift(key, 10) for key in keys]

def test_distributes_sequential_keys():
    """Sequential keys should spread across buckets (the whole point of
    hashing before binning)."""
    keys = np.arange(4096, dtype=np.uint64)
    bins = multiply_shift_array(keys, 4)
    counts = np.bincount(bins, minlength=16)
    assert counts.min() > 0
    assert counts.max() < 2.0 * counts.mean()

def test_default_multiplier_is_odd():
    assert DEFAULT_MULTIPLIER % 2 == 1


U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestRange:
    """``multiply_shift_range``, the fleet's shard hash."""

    @given(keys=st.lists(st.one_of(
               st.sampled_from([0, 1 << 63, (1 << 64) - 1]), U64),
               max_size=64),
           n=st.integers(min_value=1, max_value=CTRL_SLOTS),
           a=st.one_of(st.just(FLEET_SHARD_SEED), U64.map(lambda x: x | 1)),
           layout=st.sampled_from(["flat", "2-D", "int64"]))
    @example(keys=[0, 1 << 63, (1 << 64) - 1], n=CTRL_SLOTS,
             a=FLEET_SHARD_SEED, layout="int64")
    def test_matches_python_int_oracle(self, keys, n, a, layout):
        arr = np.array(keys, dtype=np.uint64)
        if layout == "2-D":
            arr = arr[:arr.size // 2 * 2].reshape(2, -1)
        if layout == "int64":  # keys >= 2**63 read as negative values
            arr = arr.view(np.int64)
        ids = multiply_shift_range(arr, n, a)
        assert ids.dtype == np.int64
        assert ids.shape == arr.shape
        # Signed keys wrap mod 2^64, as np.asarray(keys, uint64) does.
        expected = [((key % 2**64 * a) % 2**64 >> 32) * n >> 32
                    for key in arr.ravel().tolist()]
        assert ids.ravel().tolist() == expected
        assert all(0 <= i < n for i in expected)

    def test_validation(self):
        keys = np.arange(4, dtype=np.uint64)
        for n in (0, (1 << 31) + 1):
            with pytest.raises(ValueError, match="n must be"):
                multiply_shift_range(keys, n, FLEET_SHARD_SEED)
        with pytest.raises(ValueError, match="odd"):
            multiply_shift_range(keys, 4, 2)

    def test_fleet_multipliers_differ_from_histo_binning(self):
        multipliers = {FLEET_SHARD_SEED, DEFAULT_MULTIPLIER}
        assert len(multipliers) == 2
        assert all(a % 2 for a in multipliers)
