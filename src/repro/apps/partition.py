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

A fleet window's shards are partitioned the same way, all at once
(:meth:`PartitionKernel.process_lanes`, whose grouping
``process_shard`` runs with one worker): each tuple is labelled with
its worker, PE and partition, one stable sort and one ``bincount`` of
the labels give every group's span, and one gather cuts every worker's
chunks — each shard's own partitions, as its own ``process_shard`` call
would list them, with no per-shard gather.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.fastpath import group_spans, stable_order
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
        # The window pass over one worker's one lane.
        keys = np.asarray(keys, dtype=np.uint64)
        parts = self.partition_array(keys)
        destinations = self.pripe_of(parts)
        (partitions,) = self._partition(keys, parts, destinations, 1)
        return destinations, partitions

    def process_lanes(
        self, keys: np.ndarray, values: np.ndarray, lanes,
    ) -> Tuple[np.ndarray, List[Dict[int, List[int]]]]:
        keys = np.asarray(keys, dtype=np.uint64)
        parts = self.partition_array(keys)
        destinations = self.pripe_of(parts)
        # Each tuple's lane * M + PE, and a lane is its own worker, so
        # this names the tuple's (worker, PE).
        cells = lanes.cells(destinations, self.pripes)
        return destinations, self._partition(keys, parts, cells,
                                             lanes.route.lane_count)

    def _partition(
        self, keys: np.ndarray, parts: np.ndarray, worker_pe: np.ndarray,
        workers: int,
    ) -> List[Dict[int, List[int]]]:
        """Every worker's partitions from one grouping of the window:
        ``parts[i]`` is key ``i``'s partition and ``worker_pe[i]`` its
        worker ``* M +`` its PE, for workers in ``[0, workers)``."""
        # The result's key order is pinned (its pickle, and so a digest
        # of it, sees it): PE-major as ``collect`` walks the PEs,
        # ascending partition id within a PE — what grouping by
        # (worker, PE, partition) yields directly, worker by worker.  A
        # partition is labelled by its rank within its PE, so the
        # labels span each worker's partitions once.  The stable sort
        # keeps stream order within each group, as the per-tuple
        # appends do.
        ranks = -(-self.fanout // self.pripes)
        span = self.pripes * ranks  # labels per worker
        labels = worker_pe * ranks + parts // self.pripes
        order = stable_order(labels, workers * span)
        sizes = np.bincount(labels, minlength=workers * span)
        filled = np.flatnonzero(sizes)
        stops = np.cumsum(sizes)[filled]
        gathered = keys[order].tolist()
        chunks = list(map(gathered.__getitem__, map(
            slice, (stops - sizes[filled]).tolist(), stops.tolist())))
        # Each worker's groups are a run of ``filled``, and a group's
        # label names its PE and its partition's rank there.
        edges = [0, *np.searchsorted(
            filled, np.arange(1, workers + 1) * span).tolist()]
        local = filled % span
        ids = (local % ranks * self.pripes + local // ranks).tolist()
        return [dict(zip(ids[start:stop], chunks[start:stop]))
                for start, stop in zip(edges, edges[1:])]

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
