"""PageRank: fixed-point arithmetic, kernel equivalence, convergence."""

import networkx as nx
import numpy as np
import pytest

from repro.apps.pagerank import (
    FIXED_ONE,
    PageRankKernel,
    from_fixed,
    golden_pagerank,
    run_pagerank,
    to_fixed,
)
from repro.core.config import ArchitectureConfig
from repro.core.fastpath import run_fast
from repro.core.kernel import KernelSpec
from repro.workloads.graphs import GraphDataset, rmat_graph
from repro.workloads.tuples import TupleBatch


def small_graph():
    g = nx.barabasi_albert_graph(64, 3, seed=4)
    edges = np.array(list(g.edges()), dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    return GraphDataset("ba64", 64, src, dst)


class TestFixedPoint:
    def test_roundtrip(self):
        assert from_fixed(to_fixed(0.85)) == pytest.approx(0.85, abs=1e-4)
        assert to_fixed(1.0) == FIXED_ONE

    def test_array_conversion(self):
        arr = np.array([FIXED_ONE, FIXED_ONE // 2])
        assert list(from_fixed(arr)) == [1.0, 0.5]


class TestKernel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PageRankKernel(0)

    def test_contribution_shape_checked(self):
        kernel = PageRankKernel(10)
        with pytest.raises(ValueError):
            kernel.set_contributions(np.zeros(5, dtype=np.int64))

    def test_prepare_value_reads_contribution_table(self):
        kernel = PageRankKernel(4)
        kernel.set_contributions(np.array([10, 20, 30, 40]))
        assert kernel.prepare_value(key=0, value=2) == 30

    def test_collect_reassembles_vertex_sums(self):
        kernel = PageRankKernel(20, pripes=16)
        buffers = [kernel.make_buffer() for _ in range(16)]
        buffers[3][1] = 99          # vertex 3 + 1*16 = 19
        sums = kernel.collect(buffers)
        assert sums[19] == 99

    def test_golden_accumulates_contributions(self):
        kernel = PageRankKernel(4)
        kernel.set_contributions(np.array([100, 0, 0, 0]))
        sums = kernel.golden(np.array([1, 1, 2]), np.array([0, 0, 0]))
        assert sums[1] == 200
        assert sums[2] == 100


    def test_fast_path_refuses_an_out_of_range_vertex_like_the_pe_body(self):
        """A ``uint64`` key >= 2**63 must not wrap into a negative index
        that credits the last real vertex: the all-ones sentinel fails
        the shard exactly as the per-tuple PE body does."""
        kernel = PageRankKernel(64)
        kernel.set_contributions(np.full(64, 3, dtype=np.int64))
        batch = TupleBatch(np.array([2**64 - 1, 3], dtype=np.uint64),
                           np.zeros(2, dtype=np.int64))
        with pytest.raises(IndexError) as looped:
            KernelSpec.process_shard(kernel, batch.keys, batch.values)
        with pytest.raises(IndexError) as fast:
            run_fast(ArchitectureConfig(), kernel, batch)
        assert str(fast.value) == str(looped.value)
        assert "index 1152921504606846975 is out of bounds" in str(fast.value)


class TestEndToEnd:
    def test_cycle_sim_matches_fixed_point_golden(self):
        """Bit-exact agreement between the routed pipeline and the
        reference across 2 iterations."""
        graph = small_graph()
        cfg = ArchitectureConfig(secpes=4, reschedule_threshold=0.0)
        run = run_pagerank(graph, iterations=2, config=cfg)
        golden = golden_pagerank(graph, iterations=2)
        assert np.array_equal(run.ranks, golden)

    def test_ranks_form_probability_vector(self):
        """Q16.16 integer division truncates, so total mass drains a
        fraction of a percent per iteration (exactly as on the
        fixed-point hardware); it must stay close to 1."""
        graph = small_graph()
        golden = golden_pagerank(graph, iterations=10)
        total = from_fixed(golden).sum()
        assert total == pytest.approx(1.0, abs=0.05)
        assert total <= 1.0 + 1e-9          # truncation only loses mass

    def test_agrees_with_networkx_on_ordering(self):
        """Fixed-point PR should rank vertices like float PR: compare
        the top-5 sets."""
        g = nx.barabasi_albert_graph(64, 3, seed=4)
        graph = small_graph()
        ours = from_fixed(golden_pagerank(graph, iterations=25))
        reference = nx.pagerank(g, alpha=0.85)
        top_ours = set(np.argsort(ours)[-5:].tolist())
        top_ref = set(
            sorted(reference, key=reference.get)[-5:]
        )
        assert len(top_ours & top_ref) >= 4

    def test_mteps_accounting(self):
        graph = small_graph()
        run = run_pagerank(graph, iterations=1)
        assert run.edges_processed == graph.num_edges
        assert run.mteps(200.0) > 0

    def test_mteps_requires_cycles(self):
        from repro.apps.pagerank import PageRankRun
        run = PageRankRun(ranks=np.zeros(1), total_cycles=0,
                          edges_processed=10)
        with pytest.raises(ValueError):
            run.mteps(200.0)

    def test_skewed_graph_benefits_from_secpes(self):
        """A heavy-tailed graph runs faster with SecPEs (Fig. 8's
        mechanism) while producing identical ranks."""
        graph = rmat_graph("rmat", scale=9, edge_factor=6, seed=6)
        base_cfg = ArchitectureConfig(secpes=0, reschedule_threshold=0.0)
        help_cfg = ArchitectureConfig(secpes=15, reschedule_threshold=0.0)
        base = run_pagerank(graph, iterations=1, config=base_cfg)
        helped = run_pagerank(graph, iterations=1, config=help_cfg)
        assert np.array_equal(base.ranks, helped.ranks)
        assert helped.total_cycles < base.total_cycles

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            run_pagerank(small_graph(), iterations=0)
