"""Pairwise-independent hash family for the count-min sketch."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing.family import _MERSENNE_P, PairwiseFamily

#: Where the uint64 reduction could go wrong: around the modulus and its
#: multiples, at the limb boundaries and at the top of the key range.
EDGE_KEYS = [0, _MERSENNE_P - 1, _MERSENNE_P, _MERSENNE_P + 1,
             2 * _MERSENNE_P, 1 << 61, 1 << 63, (1 << 64) - 1]


def test_validation():
    with pytest.raises(ValueError):
        PairwiseFamily(0, 8)
    with pytest.raises(ValueError):
        PairwiseFamily(4, 0)
    fam = PairwiseFamily(2, 8)
    with pytest.raises(IndexError):
        fam.hash(2, 1)

def test_deterministic_for_seed():
    a = PairwiseFamily(3, 64, seed=7)
    b = PairwiseFamily(3, 64, seed=7)
    c = PairwiseFamily(3, 64, seed=8)
    keys = list(range(50))
    assert [a.hash(1, k) for k in keys] == [b.hash(1, k) for k in keys]
    assert [a.hash(1, k) for k in keys] != [c.hash(1, k) for k in keys]

@given(st.integers(min_value=0, max_value=(1 << 62) - 1))
def test_property_scalar_vector_agree_and_in_range(key):
    fam = PairwiseFamily(4, 97, seed=3)
    vector = fam.hash_rows(np.array([key], dtype=np.uint64))
    assert vector.shape == (4, 1)
    assert vector[:, 0].tolist() == [fam.hash(row, key) for row in range(4)]
    assert all(0 <= col < 97 for col in vector[:, 0].tolist())

@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                max_size=50),
       st.sampled_from([1, 97, 1024, (1 << 40) + 1]),
       st.booleans())
def test_property_hash_rows_is_exact_over_all_of_uint64(keys, width,
                                                        extreme):
    """``hash_rows`` reduces mod 2^61 - 1 in uint64 limbs; every row must
    equal the arbitrary-precision scalar on every key a uint64 can hold,
    also with the largest coefficients the family can draw."""
    fam = PairwiseFamily(2, width, seed=3)
    if extreme:
        fam = PairwiseFamily.from_coefficients(
            width, [_MERSENNE_P - 1, fam._a[1]], [_MERSENNE_P - 1, fam._b[1]])
    keys = EDGE_KEYS + keys
    vector = fam.hash_rows(np.array(keys, dtype=np.uint64))
    assert vector.dtype == np.int64
    assert vector.shape == (2, len(keys))
    for row in range(2):
        assert vector[row].tolist() == [fam.hash(row, key) for key in keys]

def test_rows_are_distinct_functions():
    fam = PairwiseFamily(4, 1024, seed=1)
    keys = list(range(200))
    rows = [tuple(fam.hash(r, k) for k in keys) for r in range(4)]
    assert len(set(rows)) == 4

def test_near_uniform_spread():
    fam = PairwiseFamily(1, 16, seed=9)
    cols = fam.hash_rows(np.arange(16_000, dtype=np.uint64))[0]
    counts = np.bincount(cols, minlength=16)
    assert counts.max() < 1.3 * counts.mean()
