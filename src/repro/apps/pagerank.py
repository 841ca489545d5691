"""PageRank (PR) — paper Table I.

"Scores the importance of websites by links with fixed-point data type."
The FPGA pipeline is edge-centric: every directed edge ``(u, v)`` becomes
a tuple routed by its destination vertex, and the designated PE
accumulates ``contribution(u) = d * rank(u) / degree(u)`` into its
private slice of the next-rank array.  A high-in-degree vertex therefore
concentrates tuples on one PE — the skew that makes Ditto up to 7x faster
than the plain data-routing design on undirected graphs (Fig. 8).

Arithmetic is Q16.16 fixed point, as in the paper, so the simulated
pipeline and the golden reference agree bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.architecture import SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.core.kernel import KernelSpec
from repro.resources.estimator import AppResourceProfile
from repro.workloads.graphs import GraphDataset
from repro.workloads.tuples import TupleBatch

FIXED_POINT_BITS = 16
"""Fractional bits of the Q16.16 representation."""

FIXED_ONE = 1 << FIXED_POINT_BITS
"""1.0 in fixed point."""


def to_fixed(x: float) -> int:
    """Convert a float to Q16.16."""
    return int(round(x * FIXED_ONE))


def from_fixed(x: "int | np.ndarray") -> "float | np.ndarray":
    """Convert Q16.16 back to float."""
    return x / FIXED_ONE


class PageRankKernel(KernelSpec):
    """Edge-centric PR update kernel over a vertex-partitioned buffer.

    Tuples are ``(key = destination vertex, value = source vertex)``; the
    PrePE's ``prepare_value`` hook converts the source vertex into its
    current fixed-point contribution (the PrePE reads the rank array from
    global memory, §IV-A).
    """

    decomposable = True

    def __init__(self, num_vertices: int, pripes: int = 16) -> None:
        if num_vertices <= 0:
            raise ValueError("graph must have vertices")
        self.num_vertices = num_vertices
        self.pripes = pripes
        self.contributions = np.zeros(num_vertices, dtype=np.int64)

    def set_contributions(self, contributions: np.ndarray) -> None:
        """Install this iteration's per-source contributions (Q16.16)."""
        if contributions.shape != (self.num_vertices,):
            raise ValueError("contribution array has wrong shape")
        self.contributions = contributions.astype(np.int64)

    # -- KernelSpec ----------------------------------------------------
    def route(self, key: int) -> int:
        return key % self.pripes

    def route_array(self, keys: np.ndarray) -> np.ndarray:
        return self.pripe_of(np.asarray(keys, dtype=np.uint64))

    def prepare_value(self, key: int, value: int) -> int:
        return int(self.contributions[value])

    def prepare_value_array(self, keys: np.ndarray,
                            values: np.ndarray) -> np.ndarray:
        return self.contributions[np.asarray(values, dtype=np.int64)]

    def make_buffer(self) -> np.ndarray:
        slots = -(-self.num_vertices // self.pripes)
        return np.zeros(slots, dtype=np.int64)

    def process(self, buffer: np.ndarray, key: int, value: int) -> None:
        buffer[key // self.pripes] += value

    def process_shard(self, keys: np.ndarray,
                      values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Vertex ``v`` lives in PE ``v % M`` at slot ``v // M`` and
        # ``collect`` de-interleaves the slots again, so accumulating
        # the shard into one vector already is the result; like
        # ``collect``, it drops what landed in the last slots' ragged
        # tail past ``num_vertices``.
        keys = np.asarray(keys, dtype=np.uint64)
        slots = -(-self.num_vertices // self.pripes)
        limit = slots * self.pripes
        # Checked before the signed cast: a uint64 key >= 2**63 would
        # turn into a negative index and credit a real vertex, where
        # the PE body raises.
        if int(keys.max()) >= limit:
            first = int(keys[np.argmax(keys >= limit)])
            raise IndexError(
                f"index {first // self.pripes} is out of bounds for "
                f"axis 0 with size {slots}")
        # np.add.at keeps the accumulation in exact int64 (a weighted
        # bincount would round-trip the Q16.16 sums through float64).
        sums = np.zeros(limit, dtype=np.int64)
        np.add.at(sums, keys.astype(np.int64),
                  self.prepare_value_array(keys, values))
        return self.route_array(keys), sums[:self.num_vertices]

    def merge_into(self, primary: np.ndarray, secondary: np.ndarray) -> None:
        primary += secondary

    def collect(self, pripe_buffers: List[np.ndarray]) -> np.ndarray:
        """Reassemble the accumulated next-rank sums (Q16.16)."""
        sums = np.zeros(self.num_vertices, dtype=np.int64)
        for pe, buffer in enumerate(pripe_buffers):
            span = sums[pe::self.pripes]
            span += buffer[: span.size]
        return sums

    def combine_results(self, first: np.ndarray,
                        second: np.ndarray) -> np.ndarray:
        """Rank-mass accumulators of stream segments add elementwise."""
        return first + second

    def golden(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Reference accumulation with the same fixed-point arithmetic."""
        sums = np.zeros(self.num_vertices, dtype=np.int64)
        contribs = self.contributions[np.asarray(values, dtype=np.int64)]
        np.add.at(sums, np.asarray(keys, dtype=np.int64), contribs)
        return sums

    def resource_profile(self) -> AppResourceProfile:
        """Component costs for the resource estimator."""
        slots = -(-self.num_vertices // self.pripes)
        return AppResourceProfile(
            name="pr",
            prepe_alms=1_100,
            prepe_dsp=6,
            pe_alms=700,
            pe_dsp=2,
            buffer_bits_per_pe=slots * 32,
        )


@dataclass
class PageRankRun:
    """Result of a multi-iteration PageRank execution.

    Attributes
    ----------
    ranks:
        Final rank vector (Q16.16 integers).
    total_cycles:
        Simulated cycles across all iterations (0 when computed
        analytically).
    edges_processed:
        Total routed edge-tuples.
    """

    ranks: np.ndarray
    total_cycles: int
    edges_processed: int

    def mteps(self, frequency_mhz: float) -> float:
        """Million traversed edges per second at ``frequency_mhz``."""
        if self.total_cycles == 0:
            raise ValueError("no cycle count recorded for this run")
        return self.edges_processed / self.total_cycles * frequency_mhz


def _iteration_step(
    kernel: PageRankKernel,
    ranks: np.ndarray,
    out_degrees: np.ndarray,
    damping_fixed: int,
) -> np.ndarray:
    """Per-source contributions for the next iteration (Q16.16)."""
    safe_deg = np.maximum(out_degrees, 1)
    shares = ranks // safe_deg
    return (damping_fixed * shares) >> FIXED_POINT_BITS


def run_pagerank(
    graph: GraphDataset,
    iterations: int = 5,
    damping: float = 0.85,
    config: Optional[ArchitectureConfig] = None,
    pripes: int = 16,
) -> PageRankRun:
    """Run PR on the cycle-level architecture for ``iterations`` rounds.

    Each iteration streams every edge through the skew-oblivious pipeline
    (one :class:`TupleBatch` of ``(dst, src)`` tuples) and then applies
    the rank update on the host, like the paper's CPU-side iteration
    driver.
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    config = config or ArchitectureConfig(pripes=pripes)
    kernel = PageRankKernel(graph.num_vertices, pripes=config.pripes)
    out_degrees = graph.out_degrees()
    damping_fixed = to_fixed(damping)
    base_fixed = to_fixed((1.0 - damping) / graph.num_vertices)
    ranks = np.full(graph.num_vertices, to_fixed(1.0 / graph.num_vertices),
                    dtype=np.int64)

    batch = TupleBatch(graph.dst.astype(np.uint64),
                       graph.src.astype(np.int64))
    total_cycles = 0
    for _ in range(iterations):
        kernel.set_contributions(
            _iteration_step(kernel, ranks, out_degrees, damping_fixed)
        )
        architecture = SkewObliviousArchitecture(config, kernel)
        outcome = architecture.run(batch, max_cycles=50_000_000)
        sums = outcome.result
        ranks = base_fixed + sums
        total_cycles += outcome.cycles
    return PageRankRun(
        ranks=ranks,
        total_cycles=total_cycles,
        edges_processed=graph.num_edges * iterations,
    )


def golden_pagerank(
    graph: GraphDataset,
    iterations: int = 5,
    damping: float = 0.85,
    pripes: int = 16,
) -> np.ndarray:
    """Reference PR with identical fixed-point arithmetic (Q16.16)."""
    kernel = PageRankKernel(graph.num_vertices, pripes=pripes)
    out_degrees = graph.out_degrees()
    damping_fixed = to_fixed(damping)
    base_fixed = to_fixed((1.0 - damping) / graph.num_vertices)
    ranks = np.full(graph.num_vertices, to_fixed(1.0 / graph.num_vertices),
                    dtype=np.int64)
    for _ in range(iterations):
        kernel.set_contributions(
            _iteration_step(kernel, ranks, out_degrees, damping_fixed)
        )
        sums = kernel.golden(graph.dst, graph.src)
        ranks = base_fixed + sums
    return ranks
