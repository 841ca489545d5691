"""Synthetic graph suite for the PageRank experiment (Fig. 8).

The paper evaluates PR on "public graphs [22] and synthetic graphs [8],
where the graphs shown in the x-axis are in ascending order by their
degrees", and finds that Ditto's speedup over Chen et al. [8] grows with
the average degree because "more edges updating the same vertex causes
more severe data skew".

Without network access, the suite below substitutes generated graphs with
the same controlled property: ascending average degree and a heavy-tailed
degree distribution (Barabasi-Albert preferential attachment, power-law
cluster graphs, and an RMAT-style recursive-matrix generator).  Names echo
the role of the paper's datasets, not their identity; the per-graph degree
statistics are what the experiment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class GraphDataset:
    """An undirected graph in edge-list form for the PR pipeline.

    Attributes
    ----------
    name:
        Dataset label (x-axis of Fig. 8).
    num_vertices:
        Vertex count.
    src / dst:
        Edge endpoint arrays.  For undirected PR, both directions are
        present (an edge contributes one update per direction).
    """

    name: str
    num_vertices: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError("src/dst must have identical shape")

    @property
    def num_edges(self) -> int:
        """Directed edge count (2x the undirected edge count)."""
        return int(self.src.size)

    @property
    def avg_degree(self) -> float:
        """Average (out-)degree."""
        return self.num_edges / self.num_vertices if self.num_vertices else 0.0

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex."""
        return np.bincount(self.src, minlength=self.num_vertices)

    def in_degrees(self) -> np.ndarray:
        """In-degree per vertex (the skew driver for routed updates)."""
        return np.bincount(self.dst, minlength=self.num_vertices)

    def max_in_share(self, destinations: int) -> float:
        """Largest fraction of edges destined for one of ``destinations``
        PEs when vertices are partitioned by low destination-ID bits —
        the quantity that bounds routed-PR throughput."""
        pe = self.dst % destinations
        counts = np.bincount(pe, minlength=destinations)
        return counts.max() / max(1, self.num_edges)


def rmat_graph(
    name: str,
    scale: int,
    edge_factor: int,
    seed: int = 1,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> GraphDataset:
    """RMAT-style power-law graph (Graph500 parameterisation).

    ``scale`` is log2 of the vertex count; ``edge_factor`` is edges per
    vertex before symmetrisation.  Quadrant probabilities default to the
    Graph500 values, giving the heavy-tailed in-degree distribution that
    drives PR skew.
    """
    if scale <= 0 or edge_factor <= 0:
        raise ValueError("scale and edge_factor must be positive")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = n * edge_factor
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrant selection: a | b | c | d
        src_bit = (r >= a + b).astype(np.int64)
        dst_bit = (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64)
        src |= src_bit << bit
        dst |= dst_bit << bit
    # Symmetrise (undirected evaluation).
    full_src = np.concatenate([src, dst])
    full_dst = np.concatenate([dst, src])
    return GraphDataset(name, n, full_src, full_dst)


def hub_power_graph(
    name: str,
    num_vertices: int,
    base_degree: int,
    extra_degree: int,
    hub_count: int = 8,
    locality: float = 0.0,
    pes: int = 16,
    seed: int = 1,
) -> GraphDataset:
    """A hub-dominated graph: random base + high-degree hub vertices.

    The base is a ``base_degree``-regular-ish random graph; on top,
    ``hub_count`` hub vertices — all congruent mod ``pes``, i.e. all
    living on the *same* routed partition, like the tightly connected
    cores of web/social graphs — receive ``num_vertices * extra_degree
    / 2`` additional edges.  ``locality`` is the fraction of hub-edge
    endpoints drawn from the hubs' own partition (community structure),
    which pushes the hot-partition share higher.

    This is the Fig. 8 workload knob: the hot partition's share of
    edge updates grows with ``extra_degree`` and ``locality``, which is
    exactly the property ("more edges updating the same vertex causes
    more severe data skew") the paper's graph list was chosen to sweep.
    """
    if num_vertices < 4 * pes:
        raise ValueError("graph too small for the PE count")
    if base_degree <= 0 or extra_degree < 0:
        raise ValueError("degrees must be positive")
    if not 0.0 <= locality <= 1.0:
        raise ValueError("locality must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = num_vertices

    base_edges = n * base_degree // 2
    base_src = rng.integers(0, n, size=base_edges, dtype=np.int64)
    base_dst = rng.integers(0, n, size=base_edges, dtype=np.int64)

    hub_edges = n * extra_degree // 2
    hubs = (np.arange(hub_count, dtype=np.int64) * pes) % n
    hub_src = hubs[rng.integers(0, hub_count, size=hub_edges)]
    neighbours = rng.integers(0, n, size=hub_edges, dtype=np.int64)
    local = rng.random(hub_edges) < locality
    # Local endpoints live on the hubs' partition (vertex % pes == 0).
    neighbours[local] = (neighbours[local] // pes) * pes
    src = np.concatenate([base_src, hub_src])
    dst = np.concatenate([base_dst, neighbours])
    # Symmetrise: undirected evaluation, one update per direction.
    full_src = np.concatenate([src, dst])
    full_dst = np.concatenate([dst, src])
    # Shuffle into a source-mixed order: a CSR traversal ordered by
    # source vertex spreads updates to any given destination across the
    # whole stream (hub in-edges come from everywhere), whereas the raw
    # construction order would cluster them into one artificial burst.
    order = rng.permutation(full_src.size)
    return GraphDataset(name, n, full_src[order], full_dst[order])


def paper_graph_suite(scale_factor: float = 1.0, seed: int = 3) -> List[GraphDataset]:
    """Nine graphs in ascending average degree, mirroring Fig. 8's x-axis.

    ``scale_factor`` scales vertex counts (use < 1 for quick tests).
    All nine are hub-dominated (like the paper's web/social/synthetic
    mix — its speedups of 2.9 ... 7.1x imply hot-partition shares of
    roughly 0.25 ... 0.6 even on the lowest-degree graphs); average
    degree ramps ~8 to ~96 while the hub share grows with it.
    """
    n = max(512, int(8192 * scale_factor))
    params = [
        ("road-like", 4, 4, 0.00),
        ("mesh-like", 6, 4, 0.00),
        ("web-small", 4, 8, 0.15),
        ("cite-like", 4, 12, 0.15),
        ("soc-small", 4, 16, 0.00),
        ("rmat-16", 4, 28, 0.00),
        ("soc-medium", 4, 44, 0.10),
        ("rmat-32", 4, 60, 0.10),
        ("rmat-48", 4, 92, 0.15),
    ]
    built = [
        hub_power_graph(name, n, base, extra, locality=loc,
                        seed=seed + i)
        for i, (name, base, extra, loc) in enumerate(params)
    ]
    return sorted(built, key=lambda g: g.avg_degree)
