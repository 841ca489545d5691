"""Hash functions used by the five evaluated applications.

* :mod:`repro.hashing.murmur3` — MurmurHash3 (x86 32-bit and the 64-bit
  finaliser), used by HyperLogLog as in the paper (Table I: "murmur3 hash
  function").
* :mod:`repro.hashing.radix` — radix-bit extraction for data partitioning
  (Table I: "radix hash function").
* :mod:`repro.hashing.multiply_shift` — multiply-shift hashing used for
  histogram bin indexing inside the PEs and for the fleet balancer's
  shard and team-lane routing.
* :mod:`repro.hashing.family` — a pairwise-independent family providing
  the row hashes of the count-min sketch (heavy hitter detection).

All functions have scalar and numpy-vectorised forms; the vectorised forms
are bit-exact with the scalar ones (property-tested).
"""

from repro.hashing.family import PairwiseFamily
from repro.hashing.multiply_shift import multiply_shift, multiply_shift_array
from repro.hashing.murmur3 import (
    fmix64,
    fmix64_array,
    murmur3_32,
    murmur3_32_array,
)
from repro.hashing.radix import radix_bits, radix_bits_array

__all__ = [
    "PairwiseFamily",
    "fmix64",
    "fmix64_array",
    "multiply_shift",
    "multiply_shift_array",
    "murmur3_32",
    "murmur3_32_array",
    "radix_bits",
    "radix_bits_array",
]
