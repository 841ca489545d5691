"""A pairwise-independent hash family for the count-min sketch rows.

Heavy hitter detection (Table I) uses a count-min sketch, which needs
``d`` independent row hashes.  The classic Carter–Wegman construction
``h_i(x) = ((a_i * x + b_i) mod p) mod w`` with a Mersenne prime ``p``
is cheap in hardware (multiply + add + two folds) and gives the pairwise
independence the CMS error bound requires.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

_MERSENNE_P = (1 << 61) - 1

_P = np.uint64(_MERSENNE_P)
_U1, _U30, _U31, _U61 = (np.uint64(shift) for shift in (1, 30, 31, 61))
_LOW30 = np.uint64((1 << 30) - 1)
_LOW31 = np.uint64((1 << 31) - 1)


def _fold_mersenne(x: np.ndarray) -> np.ndarray:
    """``x mod (2^61 - 1)`` for a ``uint64`` array: since ``2^61 = 1``
    (mod p) the high three bits add onto the low 61, leaving at most
    ``p + 7``, which one conditional subtract brings below ``p``."""
    folded = (x & _P) + (x >> _U61)
    np.subtract(folded, _P, out=folded, where=folded >= _P)
    return folded


class PairwiseFamily:
    """``rows`` pairwise-independent hashes onto ``[0, width)``.

    Parameters
    ----------
    rows:
        Number of hash functions (sketch depth ``d``).
    width:
        Output range (sketch width ``w``).
    seed:
        Seeds the coefficient generator; the same seed always yields the
        same family (hardware constants are baked at synthesis time).
    """

    def __init__(self, rows: int, width: int, seed: int = 0x5EED) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        rng = np.random.default_rng(seed)
        # a in [1, p), b in [0, p)
        a = [int(rng.integers(1, _MERSENNE_P)) for _ in range(rows)]
        b = [int(rng.integers(0, _MERSENNE_P)) for _ in range(rows)]
        self._install(width, a, b)

    @classmethod
    def from_coefficients(cls, width: int, a: Sequence[int],
                          b: Sequence[int]) -> "PairwiseFamily":
        """The family whose row ``i`` is ``((a[i] * x + b[i]) mod p) mod
        width``, for chosen coefficients ``1 <= a[i] < p`` and
        ``0 <= b[i] < p`` instead of seeded ones."""
        if len(a) != len(b):
            raise ValueError("need one (a, b) pair per row")
        family = cls.__new__(cls)
        family._install(width, list(a), list(b))
        return family

    def _install(self, width: int, a: List[int], b: List[int]) -> None:
        """Fix the coefficients, and the ``(rows, 1)`` ``uint64`` columns
        ``a >> 31``, ``a & (2^31 - 1)`` and ``b`` that :meth:`hash_rows`
        broadcasts: synthesis-time constants, split once here."""
        if width <= 0:
            raise ValueError("width must be positive")
        self.rows = len(a)
        self.width = width
        self._a, self._b = tuple(a), tuple(b)
        column = np.array(a, dtype=np.uint64)[:, None]
        self._a_hi, self._a_lo = column >> _U31, column & _LOW31
        self._b_column = np.array(b, dtype=np.uint64)[:, None]

    def hash(self, row: int, key: int) -> int:
        """Row ``row``'s hash of ``key`` (scalar)."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")
        value = (self._a[row] * key + self._b[row]) % _MERSENNE_P
        return value % self.width

    def hash_rows(self, keys: np.ndarray) -> np.ndarray:
        """Every row's :meth:`hash` of every key, as ``(rows, n)`` int64.

        Exact in ``uint64``, no Python-object arithmetic.  With
        ``p = 2^61 - 1``: the keys are folded below ``p`` and split into
        a 31-bit low and a 30-bit high limb once, ``a`` is split the
        same way per row, and the limb products are reduced with
        ``2^61 = 1`` and ``2^62 = 2`` (mod p), which keeps the partial
        sum under ``2^64``.  The ``d`` coefficient pairs broadcast over
        the keys' limbs; they are split once, at construction.
        """
        a_hi, a_lo, b = self._a_hi, self._a_lo, self._b_column
        k = _fold_mersenne(np.asarray(keys, dtype=np.uint64))
        k_hi = k >> _U31
        k_lo = k & _LOW31
        # a*k = a_hi*k_hi * 2^62 + mid * 2^31 + a_lo*k_lo, and
        # mid * 2^31 = (mid >> 30) * 2^61 + (mid & (2^30 - 1)) * 2^31.
        mid = a_hi * k_lo + a_lo * k_hi                      # < 2^62
        total = (((a_hi * k_hi) << _U1)                      # < 2^61
                 + (mid >> _U30)                             # < 2^32
                 + ((mid & _LOW30) << _U31)                  # < 2^61
                 + a_lo * k_lo                               # < 2^62
                 + b)                                        # < 2^61
        hashed = _fold_mersenne(total) % np.uint64(self.width)
        return hashed.astype(np.int64)
