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

A fleet keeps DP's state as §IV-B's PEs keep their output: each worker
writes its chunks to its own space and the consumer gathers a
partition's chunks only when it reads them.  The window pass
(:meth:`PartitionKernel.process_lanes`) hands each worker a *run*: one
piece per window it took, its shard's keys and their partitions in
stream order.  Runs fold by appending their pieces
(:meth:`PartitionKernel.combine_results`), and
:meth:`PartitionKernel.answer` builds the job's partition lists once,
at collect, from one stable sort of the run by partition.
``process_shard`` is the answer of a one-piece run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.fastpath import group_spans, stable_order
from repro.core.kernel import KernelSpec
from repro.hashing.radix import radix_bits, radix_bits_array
from repro.resources.estimator import AppResourceProfile

#: DP's state: *pieces*, each an array of keys and the array of their
#: partitions, in fold order; a piece is one worker's keys of one window
#: in stream order.
Run = List[Tuple[np.ndarray, np.ndarray]]


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
        return self.pripe_of(parts), self.answer([(keys, parts)])

    def process_lanes(  # hot-path
        self, keys: np.ndarray, values: np.ndarray, lanes,
    ) -> Tuple[np.ndarray, List[Run]]:
        """Each worker's run of the window: one piece, its shard's keys
        and their partitions in stream order, gathered into arrays the
        run owns (an empty lane's run has no piece)."""
        keys = np.asarray(keys, dtype=np.uint64)
        parts = self.partition_array(keys)
        runs: List[Run] = [[] for _ in range(lanes.route.lane_count)]
        for worker, chosen in lanes.positions().items():
            runs[worker].append((keys[chosen], parts[chosen]))
        return self.pripe_of(parts), runs

    def combine_results(  # hot-path
        self,
        first: Union[Run, Dict[int, List[int]]],
        second: Union[Run, Dict[int, List[int]]],
    ) -> Union[Run, Dict[int, List[int]]]:
        """Runs append their pieces; answers (a session that runs each
        segment through the architecture folds those) extend each
        partition's list.  Either way ``first`` grows in place, so a
        job's fold costs its new part, not a copy of all so far."""
        if isinstance(first, list):
            first += second
            return first
        for part, chunk in second.items():
            first.setdefault(part, []).extend(chunk)
        return first

    def answer(self, state: Run) -> Dict[int, List[int]]:
        """A run's partitions, each its keys in fold order.

        The partitions are listed as folding each piece's own answer in
        turn lists them: by the first piece a partition appears in,
        then PE-major as ``collect`` walks the PEs, and by ascending
        partition id within a PE.  The result's key order is pinned
        (its pickle, and so a digest of it, sees it).
        """
        if not state:
            return {}
        keys, parts = map(np.concatenate, zip(*state))
        order = stable_order(parts, self.fanout)
        sizes = np.bincount(parts, minlength=self.fanout)
        filled = np.flatnonzero(sizes)
        stops = np.cumsum(sizes)[filled]
        starts = stops - sizes[filled]
        # A partition's first key in fold order heads its group (the
        # sort is stable); the piece holding it is where it appears.
        edges = np.cumsum([piece_keys.size for piece_keys, _ in state])
        first_piece = np.searchsorted(edges, order[starts], side="right")
        listed = np.lexsort((filled // self.pripes, filled % self.pripes,
                             first_piece))
        gathered = keys[order].tolist()
        return {part: gathered[start:stop] for part, start, stop in zip(
            filled[listed].tolist(), starts[listed].tolist(),
            stops[listed].tolist())}

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
