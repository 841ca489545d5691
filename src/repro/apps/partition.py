"""Data partitioning (DP) — paper Table I.

"Separates a big dataset into many chunks with radix hash function."
Radix partitioning sends every tuple to the output partition selected by
a bit field of its key; with data routing, the PE owning partition range
``p mod M`` buffers tuples in BRAM and flushes them to its own region of
global memory in bursts (avoiding the fan-out-limited single-kernel
design and the run-time data dependencies of Wang et al. [18]).

DP is the paper's example of a **non-decomposable** application (§IV-B):
a SecPE cannot have its output "added" into the PriPE's — instead "PrePEs
and SecPEs output results to their own memory space of the global
memory", and the consumer of a partition reads multiple chunks.  The
kernel therefore sets ``decomposable = False`` and ``collect`` gathers
chunk lists per partition.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.fastpath import group_spans
from repro.core.kernel import KernelSpec
from repro.hashing.radix import radix_bits, radix_bits_array
from repro.resources.estimator import AppResourceProfile


class PartitionKernel(KernelSpec):
    """Radix partitioning with fan-out ``2**radix_bits_count``.

    Parameters
    ----------
    radix_bits_count:
        Number of key bits selecting the partition (fan-out exponent).
    pripes:
        M — PriPE count; partitions are distributed over PEs by their low
        ``log2(M)`` bits.
    """

    decomposable = False

    def __init__(self, radix_bits_count: int = 8, pripes: int = 16) -> None:
        if radix_bits_count <= 0:
            raise ValueError("radix_bits_count must be positive")
        self.radix_bits_count = radix_bits_count
        self.fanout = 1 << radix_bits_count
        if self.fanout < pripes:
            raise ValueError("fan-out must be at least the PE count")
        self.pripes = pripes

    def partition_of(self, key: int) -> int:
        """Output partition of ``key``."""
        return radix_bits(key, self.radix_bits_count)

    def partition_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`partition_of`."""
        return radix_bits_array(keys, self.radix_bits_count)

    # -- KernelSpec ----------------------------------------------------
    def route(self, key: int) -> int:
        return self.partition_of(key) % self.pripes

    def route_array(self, keys: np.ndarray) -> np.ndarray:
        return self.pripe_of(self.partition_array(keys))

    def make_buffer(self) -> Dict[int, List[int]]:
        """Per-PE output space: partition id -> list of keys."""
        return {}

    def process(self, buffer: Dict[int, List[int]], key: int,
                value: int) -> None:
        buffer.setdefault(self.partition_of(key), []).append(key)

    def process_shard(
        self, keys: np.ndarray, values: np.ndarray,
    ) -> Tuple[np.ndarray, Dict[int, List[int]]]:
        keys = np.asarray(keys, dtype=np.uint64)
        parts = self.partition_array(keys)
        destinations = self.pripe_of(parts)
        # The result's key order is pinned (its pickle, and so a digest
        # of it, sees it): PE-major as ``collect`` walks the PEs,
        # ascending partition id within a PE — what grouping by
        # (PE, partition) yields directly.  group_spans keeps stream
        # order within each partition, as the per-tuple appends do.
        order, spans = group_spans(destinations * self.fanout + parts,
                                   self.pripes * self.fanout)
        gathered = keys[order].tolist()
        return destinations, {
            label % self.fanout: gathered[start:stop]
            for label, start, stop in spans
        }

    def collect(
        self, buffers: List[Dict[int, List[int]]]
    ) -> Dict[int, List[int]]:
        """Union the chunk lists of all PEs (PriPEs and SecPEs).

        Order within a partition is not semantically meaningful for radix
        partitioning; the tests compare partitions as multisets.
        """
        partitions: Dict[int, List[int]] = {}
        for buffer in buffers:
            for part, chunk in buffer.items():
                partitions.setdefault(part, []).extend(chunk)
        return partitions

    def combine_results(
        self,
        first: Dict[int, List[int]],
        second: Dict[int, List[int]],
    ) -> Dict[int, List[int]]:
        """Partition chunks of consecutive segments concatenate.

        ``first`` is extended in place, so a job's fold costs its new
        chunks, not a copy of every chunk accumulated so far.
        """
        for part, chunk in second.items():
            first.setdefault(part, []).extend(chunk)
        return first

    def golden(self, keys: np.ndarray,
               values: np.ndarray) -> Dict[int, List[int]]:
        """Vectorised reference partitioning."""
        keys = np.asarray(keys, dtype=np.uint64)
        order, spans = group_spans(self.partition_array(keys), self.fanout)
        gathered = keys[order].tolist()
        return {part: gathered[start:stop] for part, start, stop in spans}

    def resource_profile(self) -> AppResourceProfile:
        """Component costs for the resource estimator."""
        return AppResourceProfile(
            name="dp",
            prepe_alms=600,
            prepe_dsp=0,
            pe_alms=900,
            pe_dsp=0,
            buffer_bits_per_pe=(self.fanout // self.pripes) * 512 * 8,
        )


def golden_partition(keys: np.ndarray, radix_bits_count: int = 8
                     ) -> Dict[int, List[int]]:
    """Standalone golden radix partitioning."""
    kernel = PartitionKernel(radix_bits_count=radix_bits_count)
    return kernel.golden(np.asarray(keys, dtype=np.uint64), np.zeros(0))
