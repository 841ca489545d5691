"""Radix-bit extraction — the hash used by data partitioning (Table I).

Radix partitioning separates a dataset into ``2**bits`` chunks using a
contiguous bit field of the key.  On the FPGA the field select is free
(wiring), which is why DP is the canonical lightweight-computation,
routing-bound application.
"""

from __future__ import annotations

import numpy as np


def radix_bits(key: int, bits: int, shift: int = 0) -> int:
    """Extract ``bits`` bits of ``key`` starting at bit ``shift``.

    >>> radix_bits(0b101100, 3, shift=2)
    3
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    return (key >> shift) & ((1 << bits) - 1)


def radix_bits_array(keys: np.ndarray, bits: int, shift: int = 0) -> np.ndarray:
    """Vectorised :func:`radix_bits` over an array of integer keys."""
    if bits <= 0:
        raise ValueError("bits must be positive")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    keys = np.asarray(keys, dtype=np.uint64)
    mask = np.uint64((1 << bits) - 1)
    return ((keys >> np.uint64(shift)) & mask).view(np.int64)
