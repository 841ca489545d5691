"""Histogram building (HISTO) — the paper's running example (§II).

Listing 1's algorithm: ``Bin[hash(key)] += 1``.  Under data routing
(Fig. 1b) the bins are *partitioned* across PEs instead of replicated:
with M PEs and B bins, PE ``p`` owns bins ``{b : b mod M == p}`` (Fig. 1b
shows PE#0 with bins 0, 2, ..., 30 for M = 16, B = 32).  The PrePE routes
a tuple by the low bits of its bin index; the PE updates the local slice
at ``bin // M``.

This layout is what delivers the paper's two benefits: no replica per PE
(16x BRAM saving for 16 PEs) and no CPU-side aggregation (final bins are
read straight out of the partitioned buffers).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.kernel import KernelSpec
from repro.hashing.multiply_shift import multiply_shift, multiply_shift_array
from repro.resources.estimator import AppResourceProfile


class HistogramKernel(KernelSpec):
    """Equi-width histogram over a hashed key space.

    Parameters
    ----------
    bins:
        Total histogram bins B (must be divisible by the PE count).
    pripes:
        M — number of PriPEs the bins are partitioned over.
    hashed:
        When True (Listing 1), the bin index is ``hash(key)`` reduced to
        ``bins``; when False the raw key's low bits are used (Listing 2's
        ``dst = tuple.key & 0xf`` routing style).
    """

    decomposable = True

    def __init__(self, bins: int = 1024, pripes: int = 16,
                 hashed: bool = True) -> None:
        if bins <= 0 or bins % pripes:
            raise ValueError("bins must be a positive multiple of pripes")
        self.bins = bins
        self.pripes = pripes
        self.hashed = hashed
        self._bin_bits = int(np.log2(bins)) if (bins & (bins - 1)) == 0 else 0

    # -- binning -------------------------------------------------------
    def bin_of(self, key: int) -> int:
        """Histogram bin of ``key``."""
        if self.hashed and self._bin_bits:
            return multiply_shift(key, self._bin_bits)
        return key % self.bins

    def bin_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`bin_of`."""
        if self.hashed and self._bin_bits:
            return multiply_shift_array(keys, self._bin_bits)
        return (np.asarray(keys, dtype=np.uint64) % np.uint64(self.bins)).astype(np.int64)

    # -- KernelSpec ----------------------------------------------------
    def route(self, key: int) -> int:
        return self.bin_of(key) % self.pripes

    def route_array(self, keys: np.ndarray) -> np.ndarray:
        return self.pripe_of(self.bin_array(keys))

    def make_buffer(self) -> np.ndarray:
        return np.zeros(self.bins // self.pripes, dtype=np.int64)

    def process(self, buffer: np.ndarray, key: int, value: int) -> None:
        buffer[self.bin_of(key) // self.pripes] += 1

    def process_shard(self, keys: np.ndarray,
                      values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Bin ``b`` lives in PE ``b % M`` at slot ``b // M`` and
        # ``collect`` de-interleaves the slots again, so one full-width
        # count of the shard already is the collected histogram.
        bins = self.bin_array(keys)
        return self.pripe_of(bins), np.bincount(bins, minlength=self.bins)

    def merge_into(self, primary: np.ndarray, secondary: np.ndarray) -> None:
        primary += secondary

    def collect(self, pripe_buffers: List[np.ndarray]) -> np.ndarray:
        """De-interleave the per-PE slices back into the full histogram."""
        hist = np.zeros(self.bins, dtype=np.int64)
        for pe, buffer in enumerate(pripe_buffers):
            hist[pe::self.pripes] = buffer
        return hist

    def combine_results(self, first: np.ndarray,
                        second: np.ndarray) -> np.ndarray:
        """Histograms of consecutive segments add elementwise."""
        return first + second

    def golden(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Independent vectorised reference."""
        bins = self.bin_array(keys)
        return np.bincount(bins, minlength=self.bins).astype(np.int64)

    def resource_profile(self) -> AppResourceProfile:
        """Component costs for the resource estimator."""
        return AppResourceProfile(
            name="histo",
            prepe_alms=900,
            prepe_dsp=4,
            pe_alms=500,
            pe_dsp=2,
            buffer_bits_per_pe=(self.bins // self.pripes) * 32,
        )


def golden_histogram(keys: np.ndarray, bins: int = 1024,
                     hashed: bool = True) -> np.ndarray:
    """Standalone golden histogram (module-level convenience)."""
    kernel = HistogramKernel(bins=bins, hashed=hashed)
    return kernel.golden(np.asarray(keys, dtype=np.uint64), np.zeros(0))
