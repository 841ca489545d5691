"""HLL's rank by float exponent equals the scalar bit-length rank.

:func:`repro.apps.hyperloglog.rank_array` reads each 32-bit half's bit
length from ``np.frexp``.  The words where that could slip are pinned
explicitly: zero (the clamp), every single-bit word (each half's edge),
words whose high half is zero, and the all-ones words on both sides of
the 32-bit boundary.  Random words cover the rest, at the smallest,
the serving and the largest precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.hyperloglog import rank_array

PRECISIONS = (4, 14, 18)
EDGES = sorted({0, (1 << 32) - 1, 1 << 32, (1 << 64) - 1,
                *(1 << i for i in range(64))})


def scalar_rank(word: int, precision: int) -> int:
    """Leading zeros of the 64-bit ``word`` plus one, capped at the
    all-zero word's rank."""
    return min(64 - word.bit_length() + 1, 64 - precision + 1)


def ranks(words, precision):
    return rank_array(np.array(words, dtype=np.uint64), precision).tolist()


@pytest.mark.parametrize("precision", PRECISIONS)
def test_edge_words(precision):
    assert ranks(EDGES, precision) == [
        scalar_rank(word, precision) for word in EDGES]


#: Uniform words nearly all have the top bit set, so shift some right
#: by a random amount: every bit length turns up.
words = st.lists(
    st.one_of(st.integers(0, (1 << 64) - 1),
              st.builds(lambda word, shift: word >> shift,
                        st.integers(0, (1 << 64) - 1), st.integers(0, 63))),
    min_size=1, max_size=100)


@pytest.mark.parametrize("precision", PRECISIONS)
@settings(deadline=None, max_examples=100)
@given(words=words)
def test_random_words(precision, words):
    assert ranks(words, precision) == [
        scalar_rank(word, precision) for word in words]
