"""MurmurHash3 — the hash the paper's HLL application uses (Table I).

Two variants are provided:

* :func:`murmur3_32` — the full MurmurHash3 x86_32 algorithm over a byte
  string (reference implementation, used for golden results).
* :func:`fmix64` — the 64-bit finaliser, applied directly to integer keys.
  This is what an HLS kernel actually instantiates for fixed-width tuple
  keys (a handful of multiplies and shifts, II = 1), and what the
  simulated PrePEs use.

Both have vectorised numpy twins that are bit-exact with the scalar code;
:func:`murmur3_32_array`, the fleet's sharding hash, is one fused
``uint32`` pass over little-endian words, independent of host byte order.
"""

from __future__ import annotations

import struct

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK32


def murmur3_32(data: bytes | int, seed: int = 0) -> int:
    """MurmurHash3 x86_32 of ``data`` (bytes, or an int taken as 8 LE bytes).

    Returns an unsigned 32-bit hash.  Matches the reference
    smhasher implementation.
    """
    if isinstance(data, int):
        data = struct.pack("<Q", data & _MASK64)
    length = len(data)
    h = seed & _MASK32
    c1, c2 = 0xCC9E2D51, 0x1B873593

    rounded = length - (length % 4)
    for offset in range(0, rounded, 4):
        k = struct.unpack_from("<I", data, offset)[0]
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK32

    k = 0
    tail = data[rounded:]
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * c2) & _MASK32
        h ^= k

    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


#: The array hash's ``uint32`` scalars, built once rather than per call.
_C1, _C2, _N = (np.uint32(c) for c in (0xCC9E2D51, 0x1B873593, 0xE6546B64))
_F1, _F2 = np.uint32(0x85EBCA6B), np.uint32(0xC2B2AE35)
_U32 = {c: np.uint32(c) for c in (5, 8, 13, 15, 16, 17, 19)}


def murmur3_32_array(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorised :func:`murmur3_32` for arrays of 64-bit integer keys.

    One fused pass over the keys as little-endian ``uint32`` word pairs:
    ``murmur3_32(int_key)`` on any host, with signed keys wrapped as
    ``np.asarray(keys, uint64)`` wraps them, in the keys' shape.
    """
    words = np.ascontiguousarray(keys, "<u8").view("<u4").reshape(-1, 2)
    # Array (not scalar) uint32 arithmetic wraps silently, as hashing needs.
    k = words * _C1  # both words' k at once
    high = k >> _U32[17]  # k = rotl32(k, 15), in place
    k <<= _U32[15]
    k |= high
    k *= _C2
    h = k[:, 0] ^ np.uint32(seed & _MASK32)
    for word in (k[:, 1], _U32[8]):  # the second word, then the length
        high = h >> _U32[19]  # h = rotl32(h, 13), in place
        h <<= _U32[13]
        h |= high
        h *= _U32[5]
        h += _N
        h ^= word
    h ^= h >> _U32[16]
    h *= _F1
    h ^= h >> _U32[13]
    h *= _F2
    h ^= h >> _U32[16]
    return h.reshape(np.shape(keys))


def fmix64(key: int) -> int:
    """MurmurHash3's 64-bit finaliser — a strong integer mixer.

    This is the form instantiated in hardware for fixed-width keys; it is
    a bijection on 64-bit values, which the property tests exploit.
    """
    k = key & _MASK64
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    k ^= k >> 33
    return k


def fmix64_array(keys: np.ndarray) -> np.ndarray:
    """Vectorised :func:`fmix64` over an array of uint64 keys."""
    k = np.asarray(keys, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        k ^= k >> np.uint64(33)
        k *= np.uint64(0xFF51AFD7ED558CCD)
        k ^= k >> np.uint64(33)
        k *= np.uint64(0xC4CEB9FE1A85EC53)
        k ^= k >> np.uint64(33)
    return k
