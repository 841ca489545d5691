"""End-to-end architecture tests: correctness across apps and skew, the
skew collapse and recovery, and the rescheduling loop."""

import numpy as np
import pytest

from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.partition import PartitionKernel
from repro.core.architecture import SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator


def run_histo(batch, secpes=0, **cfg_kwargs):
    kernel = HistogramKernel(bins=512, pripes=16)
    cfg_kwargs.setdefault("reschedule_threshold", 0.0)
    cfg = ArchitectureConfig(secpes=secpes, **cfg_kwargs)
    arch = SkewObliviousArchitecture(cfg, kernel)
    return kernel, arch.run(batch, max_cycles=5_000_000)


class TestCorrectness:
    def test_histogram_uniform_matches_golden(self, uniform_batch):
        kernel, outcome = run_histo(uniform_batch)
        assert np.array_equal(
            outcome.result,
            kernel.golden(uniform_batch.keys, uniform_batch.values),
        )

    def test_histogram_skewed_with_secpes_matches_golden(self, skewed_batch):
        kernel, outcome = run_histo(skewed_batch, secpes=15)
        assert np.array_equal(
            outcome.result,
            kernel.golden(skewed_batch.keys, skewed_batch.values),
        )
        assert len(outcome.plans) == 1

    def test_hll_registers_match_golden(self, skewed_batch):
        kernel = HyperLogLogKernel(precision=10, pripes=16)
        cfg = ArchitectureConfig(secpes=8, reschedule_threshold=0.0)
        arch = SkewObliviousArchitecture(cfg, kernel)
        outcome = arch.run(skewed_batch, max_cycles=5_000_000)
        golden = kernel.golden(skewed_batch.keys, skewed_batch.values)
        assert np.array_equal(outcome.result, golden)

    def test_partition_multisets_match_golden(self, uniform_batch):
        small = uniform_batch.slice(0, 4000)
        kernel = PartitionKernel(radix_bits_count=6, pripes=16)
        cfg = ArchitectureConfig(secpes=4, reschedule_threshold=0.0)
        arch = SkewObliviousArchitecture(cfg, kernel)
        outcome = arch.run(small, max_cycles=5_000_000)
        golden = kernel.golden(small.keys, small.values)
        assert set(outcome.result) == set(golden)
        for part in golden:
            assert sorted(outcome.result[part]) == sorted(golden[part])

    def test_rejects_empty_batch(self):
        kernel = HistogramKernel(bins=512, pripes=16)
        arch = SkewObliviousArchitecture(ArchitectureConfig(), kernel)
        with pytest.raises(ValueError):
            arch.run(TupleBatch(np.zeros(0, np.uint64), np.zeros(0)))

    def test_budget_exhaustion_raises(self, uniform_batch):
        kernel = HistogramKernel(bins=512, pripes=16)
        arch = SkewObliviousArchitecture(ArchitectureConfig(), kernel)
        with pytest.raises(RuntimeError, match="cycle budget"):
            arch.run(uniform_batch, max_cycles=10)


class TestSkewBehaviour:
    def test_uniform_is_bandwidth_bound(self, uniform_batch):
        _, outcome = run_histo(uniform_batch)
        assert outcome.tuples_per_cycle > 7.0      # ~8 ideal

    def test_extreme_skew_collapses_to_one_sixteenth(self, skewed_batch):
        """Fig. 2b / §II: alpha=3 runs ~16x slower than uniform."""
        _, uniform = run_histo(
            ZipfGenerator(alpha=0.0, seed=9).generate(10_000))
        _, skewed = run_histo(
            ZipfGenerator(alpha=3.0, seed=9).generate(10_000))
        slowdown = uniform.tuples_per_cycle / skewed.tuples_per_cycle
        assert 8.0 < slowdown <= 18.0

    def test_secpes_recover_throughput(self, skewed_batch):
        _, base = run_histo(skewed_batch, secpes=0)
        _, helped = run_histo(skewed_batch, secpes=15)
        assert helped.tuples_per_cycle > 5 * base.tuples_per_cycle

    def test_secpe_count_monotonically_helps(self, skewed_batch):
        rates = []
        for x in [0, 2, 8, 15]:
            _, outcome = run_histo(skewed_batch, secpes=x)
            rates.append(outcome.tuples_per_cycle)
        assert rates == sorted(rates)

    def test_pe_tuple_counts_show_redistribution(self, skewed_batch):
        _, outcome = run_histo(skewed_batch, secpes=15)
        pri_counts = [outcome.pe_tuple_counts[j] for j in range(16)]
        sec_counts = [outcome.pe_tuple_counts[j] for j in range(16, 31)]
        assert sum(sec_counts) > 0                  # SecPEs took real work
        # No designated PE should hold a ~0.8 share anymore.
        total = sum(pri_counts) + sum(sec_counts)
        assert max(pri_counts + sec_counts) / total < 0.4


class TestRescheduling:
    def test_distribution_change_triggers_replan(self):
        """Two concatenated alpha=3 datasets with different seeds: the
        monitor must notice the hot-PE move and re-plan."""
        a = ZipfGenerator(alpha=3.0, seed=21).generate(12_000)
        b = ZipfGenerator(alpha=3.0, seed=77).generate(12_000)
        batch = a.concat(b)
        kernel = HistogramKernel(bins=512, pripes=16)
        cfg = ArchitectureConfig(
            secpes=15,
            reschedule_threshold=0.5,
            monitor_window=512,
            reenqueue_delay_cycles=128,
        )
        arch = SkewObliviousArchitecture(cfg, kernel)
        outcome = arch.run(batch, max_cycles=10_000_000)
        assert outcome.reschedules >= 1
        assert np.array_equal(
            outcome.result, kernel.golden(batch.keys, batch.values)
        )

    def test_result_correct_even_with_aggressive_rescheduling(self):
        batch = ZipfGenerator(alpha=2.0, seed=5).generate(15_000)
        kernel = HistogramKernel(bins=512, pripes=16)
        cfg = ArchitectureConfig(
            secpes=8, reschedule_threshold=0.9,
            monitor_window=256, reenqueue_delay_cycles=64,
        )
        arch = SkewObliviousArchitecture(cfg, kernel)
        outcome = arch.run(batch, max_cycles=10_000_000)
        assert np.array_equal(
            outcome.result, kernel.golden(batch.keys, batch.values)
        )
