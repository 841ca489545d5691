"""Multiply-shift hashing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing.multiply_shift import (
    DEFAULT_MULTIPLIER,
    multiply_shift,
    multiply_shift_array,
)


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
