"""HyperLogLog cardinality estimation (HLL) — paper Table I.

"Estimates the cardinality of the big datasets with murmur3 hash
function."  HLL keeps ``2**p`` six-bit registers; every key is hashed,
the top ``p`` bits select a register and the count of leading zeros of
the remaining bits (plus one) is max-folded into it.  The estimate is the
bias-corrected harmonic mean of the registers (Flajolet et al., with the
small-range linear-counting correction).

Under data routing the register file is *partitioned*: PE ``p`` owns
registers ``{r : r mod M == p}``.  The paper's Table II notes this is
what gives "10x" BRAM saving vs the replicated-register RTL design of
Kulkarni et al. [20] and lets the same BRAM budget hold more registers —
"HLL obtains more accurate estimation".

Skew behaviour: a hot key always hashes to the same register, hence the
same PE — exactly the overload pattern Fig. 7 sweeps with Zipf datasets.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core.kernel import KernelSpec
from repro.hashing.murmur3 import fmix64, fmix64_array
from repro.resources.estimator import AppResourceProfile


def _alpha_m(m: int) -> float:
    """HLL bias-correction constant for ``m`` registers."""
    if m <= 16:
        return 0.673
    if m <= 32:
        return 0.697
    if m <= 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def hll_estimate_from_registers(registers: np.ndarray) -> float:
    """Cardinality estimate from a full register array.

    Implements the standard HyperLogLog estimator with the linear-counting
    small-range correction; the large-range (hash-collision) correction is
    unnecessary for 64-bit hashes.
    """
    registers = np.asarray(registers)
    m = registers.size
    if m == 0:
        raise ValueError("empty register array")
    raw = _alpha_m(m) * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    zeros = int(np.count_nonzero(registers == 0))
    if raw <= 2.5 * m and zeros:
        return m * math.log(m / zeros)
    return float(raw)


def rank_array(rest: np.ndarray, precision: int) -> np.ndarray:
    """HLL rank of every 64-bit word in ``rest``: leading zeros + 1,
    capped at ``65 - precision`` (an all-zero word's rank).

    A ``uint64`` can round up a power of two in float64, but each 32-bit
    half converts exactly, so ``np.frexp``'s exponent of a half is its
    bit length (0 for a zero half).
    """
    _, high = np.frexp((rest >> np.uint64(32)).astype(np.float64))
    _, low = np.frexp((rest & np.uint64(0xFFFFFFFF)).astype(np.float64))
    bit_length = np.where(high > 0, high + 32, low)
    return np.minimum(65 - bit_length, 65 - precision)


class HyperLogLogKernel(KernelSpec):
    """HLL with ``2**precision`` registers partitioned across PriPEs.

    Parameters
    ----------
    precision:
        p — register-index width in bits (14 gives 16,384 registers, the
        configuration whose buffers drive the Table III RAM numbers).
    pripes:
        M — PriPE count the register file is partitioned over.
    """

    decomposable = True

    def __init__(self, precision: int = 14, pripes: int = 16) -> None:
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in 4..18")
        self.precision = precision
        self.registers = 1 << precision
        if self.registers % pripes:
            raise ValueError("register count must divide by the PE count")
        self.pripes = pripes

    # -- hashing -------------------------------------------------------
    def register_and_rho(self, key: int) -> tuple:
        """(register index, rank) of ``key`` — the PrePE+PE computation."""
        h = fmix64(key)
        index = h >> (64 - self.precision)
        rest = (h << self.precision) & ((1 << 64) - 1)
        # rho = leading zeros of the remaining bits + 1
        rho = 1
        probe = 1 << 63
        while rho <= 64 - self.precision and not rest & probe:
            rho += 1
            probe >>= 1
        return index, rho

    def _hash_index_arrays(self, keys: np.ndarray) -> tuple:
        """(hash, register index) — shared by routing and processing so
        the two can never disagree on a key's register."""
        h = fmix64_array(keys)
        return h, (h >> np.uint64(64 - self.precision)).astype(np.int64)

    def _register_and_rho_arrays(self, keys: np.ndarray) -> tuple:
        h, index = self._hash_index_arrays(keys)
        return index, rank_array(h << np.uint64(self.precision),
                                 self.precision)

    # -- KernelSpec ----------------------------------------------------
    def route(self, key: int) -> int:
        index, _ = self.register_and_rho(key)
        return index % self.pripes

    def route_array(self, keys: np.ndarray) -> np.ndarray:
        # Routing needs only the register index: skip the rank.
        _, index = self._hash_index_arrays(
            np.asarray(keys, dtype=np.uint64))
        return self.pripe_of(index)

    def make_buffer(self) -> np.ndarray:
        return np.zeros(self.registers // self.pripes, dtype=np.int8)

    def process(self, buffer: np.ndarray, key: int, value: int) -> None:
        index, rho = self.register_and_rho(key)
        local = index // self.pripes
        if rho > buffer[local]:
            buffer[local] = rho

    def process_shard(self, keys: np.ndarray,
                      values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Register ``r`` lives in PE ``r % M`` at slot ``r // M`` and
        # ``collect`` de-interleaves the slots again, so max-folding the
        # shard into one full register file already is the result.
        index, rho = self._register_and_rho_arrays(
            np.asarray(keys, dtype=np.uint64))
        registers = np.zeros(self.registers, dtype=np.int8)
        np.maximum.at(registers, index, rho.astype(np.int8))
        return self.pripe_of(index), registers

    def merge_into(self, primary: np.ndarray, secondary: np.ndarray) -> None:
        np.maximum(primary, secondary, out=primary)

    def collect(self, pripe_buffers: List[np.ndarray]) -> np.ndarray:
        """Reassemble the full register file from the PE slices."""
        registers = np.zeros(self.registers, dtype=np.int8)
        for pe, buffer in enumerate(pripe_buffers):
            registers[pe::self.pripes] = buffer
        return registers

    def combine_results(self, first: np.ndarray,
                        second: np.ndarray) -> np.ndarray:
        """Register files of consecutive segments max-fold."""
        return np.maximum(first, second)

    def estimate(self, registers: np.ndarray) -> float:
        """Cardinality estimate from collected registers."""
        return hll_estimate_from_registers(registers)

    def golden(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Vectorised reference register file."""
        keys = np.asarray(keys, dtype=np.uint64)
        index, rho = self._register_and_rho_arrays(keys)
        registers = np.zeros(self.registers, dtype=np.int8)
        np.maximum.at(registers, index, rho.astype(np.int8))
        return registers

    def resource_profile(self) -> AppResourceProfile:
        """Component costs for the resource estimator (Table III app)."""
        return AppResourceProfile(
            name="hll",
            prepe_alms=2_400,
            prepe_dsp=20,
            pe_alms=800,
            pe_dsp=8,
            buffer_bits_per_pe=(self.registers // self.pripes) * 6,
        )


def golden_hll_estimate(keys: np.ndarray, precision: int = 14) -> float:
    """Reference cardinality estimate of ``keys``."""
    kernel = HyperLogLogKernel(precision=precision)
    return kernel.estimate(kernel.golden(np.asarray(keys, dtype=np.uint64),
                                         np.zeros(0)))
