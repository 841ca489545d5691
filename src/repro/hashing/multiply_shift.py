"""Multiply-shift hashing (Dietzfelbinger et al.) for histogram binning.

``h(x) = (a * x mod 2^64) >> (64 - out_bits)`` with odd ``a`` is a
2-universal-ish hash that costs a single DSP multiply in hardware —
exactly the kind of one-cycle "lightweight computation" (§III, Challenge
1) that makes work-stealing unprofitable for these applications.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
DEFAULT_MULTIPLIER = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd


def multiply_shift(key: int, out_bits: int, a: int = DEFAULT_MULTIPLIER) -> int:
    """Hash ``key`` to ``out_bits`` bits with multiplier ``a`` (odd).

    ``out_bits`` is capped at 63 so results fit a signed 64-bit lane
    (bin indexes in hardware are far narrower anyway).
    """
    if not 0 < out_bits <= 63:
        raise ValueError("out_bits must be in 1..63")
    if a % 2 == 0:
        raise ValueError("multiplier must be odd")
    return ((key * a) & _MASK64) >> (64 - out_bits)


def multiply_shift_array(
    keys: np.ndarray, out_bits: int, a: int = DEFAULT_MULTIPLIER
) -> np.ndarray:
    """Vectorised :func:`multiply_shift` over an array of integer keys."""
    if not 0 < out_bits <= 63:
        raise ValueError("out_bits must be in 1..63")
    if a % 2 == 0:
        raise ValueError("multiplier must be odd")
    # Array integer arithmetic wraps mod 2^64 silently (only NumPy
    # *scalar* ops warn on overflow), which is the hash's definition.
    # The shifted product is below 2^63, so the int64 view is exact.
    product = np.asarray(keys, dtype=np.uint64) * np.uint64(a)
    product >>= np.uint64(64 - out_bits)
    return product.view(np.int64)
