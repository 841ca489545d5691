"""Fast-path executor vs the cycle-accurate oracle.

The contract of :mod:`repro.core.fastpath`: application results are
bit-identical to the cycle engine's and modeled cycles stay within 10%
of simulated, across Zipf skew factors, for every splittable app.
"""

from collections import Counter

import numpy as np
import pytest

import repro.apps.hyperloglog
import repro.apps.partition
import repro.core.fastpath
from repro.apps.heavy_hitter import HeavyHitterKernel, half_duplicate_stream
from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.pagerank import PageRankKernel, to_fixed
from repro.apps.partition import PartitionKernel
from repro.core.architecture import SkewObliviousArchitecture
from repro.core.config import ArchitectureConfig
from repro.core.fastpath import run_fast, validate_engine
from repro.core.kernel import KernelSpec
from repro.hashing.family import PairwiseFamily
from repro.runtime import StreamingSession
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

ALPHAS = [0.0, 0.8, 1.2, 2.0]
TUPLES = 6_000
SEED = 7

SERVING_CONFIG = ArchitectureConfig(pripes=16, secpes=0,
                                    reschedule_threshold=0.0)


def make_app(app: str, tuples: int = TUPLES, alpha: float = 1.2):
    """(kernel, batch) pair for one application."""
    batch = ZipfGenerator(alpha=alpha, seed=SEED).generate(tuples)
    if app == "histo":
        return HistogramKernel(bins=1024, pripes=16), batch
    if app == "dp":
        return PartitionKernel(radix_bits_count=6, pripes=16), batch
    if app == "hll":
        return HyperLogLogKernel(precision=12, pripes=16), batch
    if app == "hhd":
        return HeavyHitterKernel(pripes=16), batch
    if app == "pagerank":
        rng = np.random.default_rng(SEED)
        vertices = 2_048
        kernel = PageRankKernel(vertices, pripes=16)
        kernel.set_contributions(
            rng.integers(0, to_fixed(1.0), vertices).astype(np.int64))
        return kernel, TupleBatch(
            batch.keys % np.uint64(vertices),
            rng.integers(0, vertices, tuples, dtype=np.int64),
        )
    raise ValueError(app)


def results_identical(ours, golden) -> bool:
    if isinstance(ours, np.ndarray):
        return bool(np.array_equal(ours, golden))
    if isinstance(ours, dict):
        return set(ours) == set(golden) and all(
            ours[k] == golden[k] for k in golden)
    return ours == golden


class TestServingConfigEquivalence:
    """16P (the serving layer's pipeline shape), all splittable apps."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("app", ["histo", "dp", "hll", "pagerank"])
    def test_bit_identical_results_and_cycles_within_10pct(
            self, app, alpha):
        kernel, batch = make_app(app, alpha=alpha)
        architecture = SkewObliviousArchitecture(SERVING_CONFIG, kernel)
        simulated = architecture.run(batch, max_cycles=5_000_000)
        fast = architecture.run(batch, engine="fast")
        assert results_identical(simulated.result, fast.result)
        assert fast.cycles == pytest.approx(simulated.cycles, rel=0.10)
        assert fast.tuples == simulated.tuples == len(batch)


class TestSkewHandlingEquivalence:
    """16P+4S: the epoch model carries the profiling transient."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_histogram_with_secpes(self, alpha):
        config = ArchitectureConfig(pripes=16, secpes=4,
                                    reschedule_threshold=0.0)
        batch = ZipfGenerator(alpha=alpha, seed=SEED).generate(20_000)
        kernel = HistogramKernel(bins=1024, pripes=16)
        architecture = SkewObliviousArchitecture(config, kernel)
        simulated = architecture.run(batch, max_cycles=5_000_000)
        fast = architecture.run(batch, engine="fast")
        assert np.array_equal(simulated.result, fast.result)
        assert fast.cycles == pytest.approx(simulated.cycles, rel=0.10)
        # The greedy plan the model derives is reported like the
        # profiler's.
        assert len(fast.plans) == 1
        assert len(fast.plans[0].pairs) == config.secpes


class TestHeavyHitterFastPath:
    def test_process_shard_replays_the_per_tuple_loop_exactly(self):
        """Candidate admissions (decided at each key's last occurrence
        against its running estimate) and the final thresholds on each
        PE's private sketch must match the sequential loop, even with
        heavy collisions — with four PEs sharing each call, one fresh
        PE array per shard."""
        rng = np.random.default_rng(0)
        for trial in range(10):
            kernel = HeavyHitterKernel(
                depth=3, width=int(rng.integers(4, 32)),
                threshold=int(rng.integers(2, 20)),
                track_fraction=float(rng.uniform(0.1, 1.0)),
                pripes=4,
            )
            warm = rng.integers(0, 30, 20).astype(np.uint64)
            keys = rng.integers(0, 50, int(rng.integers(1, 400))
                                ).astype(np.uint64)
            for chunk in (warm, keys):
                sequential = [kernel.make_buffer() for _ in range(4)]
                for key in chunk.tolist():
                    kernel.process(sequential[kernel.route(key)], key, 1)
                destinations, result = kernel.process_shard(
                    chunk, np.ones(chunk.size, dtype=np.int64))
                assert np.array_equal(destinations,
                                      kernel.route_array(chunk))
                assert result == kernel.collect(sequential)

    def test_detected_hitters_match_cycle_engine(self):
        batch = half_duplicate_stream(6_000, seed=3)
        cycle_kernel = HeavyHitterKernel(pripes=16)
        simulated = SkewObliviousArchitecture(
            SERVING_CONFIG, cycle_kernel).run(batch, max_cycles=5_000_000)
        fast_kernel = HeavyHitterKernel(pripes=16)
        fast = SkewObliviousArchitecture(
            SERVING_CONFIG, fast_kernel).run(batch, engine="fast")
        assert simulated.result == fast.result
        assert 0xDEAD in fast.result


class TestPerShardCost:
    """One fused kernel pass per shard; the PE storage is not stepped.

    Counted, not timed: a regression to per-PE stepping (16 buffers
    zeroed, folded into and de-interleaved, the shard hashed once to
    route and once more to reduce, an argsort/split per shard) changes
    no result, so otherwise only the wall-clock benchmark would notice.
    """

    SHARDS = 3

    @pytest.mark.parametrize("app",
                             ["histo", "hll", "pagerank", "hhd", "dp"])
    def test_one_kernel_pass_per_shard(self, app, monkeypatch):
        kernel, batch = make_app(app, tuples=self.SHARDS * 1_000)
        calls = Counter()

        def count(owner, name, label):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[label] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(type(kernel), "process_shard", "process_shard")
        count(type(kernel), "make_buffer", "make_buffer")
        count(HistogramKernel, "bin_array", "histo")
        count(repro.apps.hyperloglog, "fmix64_array", "hll")
        count(PartitionKernel, "partition_array", "dp")
        count(repro.core.fastpath, "group_spans", "run_fast.group_spans")
        count(repro.core.fastpath, "stable_order", "run_fast.stable_order")
        count(repro.apps.partition, "stable_order", "dp.stable_order")
        count(PairwiseFamily, "hash_rows", "hhd")
        count(np, "argsort", "argsort")

        for shard in range(self.SHARDS):
            run_fast(SERVING_CONFIG, kernel,
                     batch.slice(shard * 1_000, (shard + 1) * 1_000))

        assert calls["process_shard"] == self.SHARDS
        # The shard's hash serves routing and reducing alike.
        # (HHD hashes the shard's distinct keys once, for every row.)
        for hashed in ("histo", "hll", "dp", "hhd"):
            assert calls[hashed] == (self.SHARDS if app == hashed else 0)
        if app in ("histo", "hll", "pagerank", "hhd"):
            assert calls["make_buffer"] == 0
        assert calls["run_fast.group_spans"] == 0
        assert calls["run_fast.stable_order"] == 0
        # DP groups by (PE, partition) once per shard through the
        # narrow-label sort, HHD orders its hitters by PE; nobody else
        # sorts.
        assert calls["dp.stable_order"] == (self.SHARDS if app == "dp" else 0)
        assert calls["argsort"] == (
            calls["dp.stable_order"] + (self.SHARDS if app == "hhd" else 0))


class _LoopOnlyKernel(KernelSpec):
    """A kernel without a vectorised hook: exercises the fallback."""

    def route(self, key: int) -> int:
        return key % self.pripes

    def make_buffer(self):
        return np.zeros(2, dtype=np.int64)

    def process(self, buffer, key: int, value: int) -> None:
        buffer[0] += value
        buffer[1] = max(buffer[1], key)

    def merge_into(self, primary, secondary) -> None:
        primary[0] += secondary[0]
        primary[1] = max(primary[1], secondary[1])

    def collect(self, pripe_buffers):
        return np.stack(pripe_buffers)


class TestFallbackAndInterface:
    def test_per_tuple_fallback_matches_cycle_engine(self):
        batch = ZipfGenerator(alpha=1.0, seed=5).generate(2_000)
        architecture = SkewObliviousArchitecture(SERVING_CONFIG,
                                                 _LoopOnlyKernel())
        simulated = architecture.run(batch, max_cycles=5_000_000)
        fast = architecture.run(batch, engine="fast")
        assert np.array_equal(simulated.result, fast.result)

    def test_empty_batch_rejected(self):
        kernel, _ = make_app("histo")
        empty = TupleBatch(np.zeros(0, dtype=np.uint64),
                           np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty batch"):
            run_fast(SERVING_CONFIG, kernel, empty)

    def test_unknown_engine_rejected(self):
        kernel, batch = make_app("histo")
        architecture = SkewObliviousArchitecture(SERVING_CONFIG, kernel)
        with pytest.raises(ValueError, match="unknown engine"):
            architecture.run(batch, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("warp")

    def test_modeled_pe_counts_cover_the_stream(self):
        kernel, batch = make_app("histo", alpha=1.5)
        fast = run_fast(SERVING_CONFIG, kernel, batch)
        assert sum(fast.pe_tuple_counts.values()) == len(batch)
        assert set(fast.pe_tuple_counts) == set(range(16))

    def test_streaming_session_engine_switch(self):
        segments = [ZipfGenerator(alpha=a, seed=20 + i).generate(2_000)
                    for i, a in enumerate([0.5, 2.0])]
        results = {}
        for engine in ("cycle", "fast"):
            session = StreamingSession(
                config=SERVING_CONFIG,
                kernel=HistogramKernel(bins=256, pripes=16),
                engine=engine,
            )
            for segment in segments:
                session.process(segment)
            results[engine] = session.result
        assert np.array_equal(results["cycle"], results["fast"])
