"""Streaming sessions: result accumulation across segments."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.heavy_hitter import HeavyHitterKernel
from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.partition import PartitionKernel
from repro.core.config import ArchitectureConfig
from repro.core.kernel import KernelSpec
from repro.runtime import StreamingSession
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkItem, WorkerPool
from repro.workloads.evolving import EvolvingZipfStream
from repro.workloads.zipf import ZipfGenerator


def make_session(kernel, secpes=8, threshold=0.0):
    return StreamingSession(
        config=ArchitectureConfig(secpes=secpes,
                                  reschedule_threshold=threshold),
        kernel=kernel,
    )


class TestHistogramSession:
    def test_running_histogram_equals_batch_of_everything(self):
        kernel = HistogramKernel(bins=256, pripes=16)
        session = make_session(kernel)
        segments = [
            ZipfGenerator(alpha=a, seed=50 + i).generate(5_000)
            for i, a in enumerate([0.5, 2.0, 3.0])
        ]
        for segment in segments:
            session.process(segment)
        merged = segments[0].concat(segments[1]).concat(segments[2])
        golden = kernel.golden(merged.keys, merged.values)
        assert np.array_equal(session.result, golden)
        assert session.total_tuples == 15_000

    def test_totals_count_each_segment(self):
        kernel = HistogramKernel(bins=256, pripes=16)
        session = make_session(kernel)
        cycles = 0
        for i in range(3):
            outcome = session.process(
                ZipfGenerator(alpha=1.0, seed=i).generate(3_000))
            assert outcome.tuples == 3_000
            cycles += outcome.cycles
            assert session.segments == i + 1
        assert session.total_tuples == 9_000
        assert session.total_cycles == cycles
        assert 0 < session.total_tuples / session.total_cycles <= 8.0

    def test_process_returns_the_engines_own_outcome(self):
        kernel = HistogramKernel(bins=256, pripes=16)
        session = make_session(kernel, secpes=8, threshold=0.0)
        outcome = session.process(
            ZipfGenerator(alpha=2.0, seed=4).generate(4_000))
        assert outcome.cycles > 0
        assert outcome.tuples_per_cycle == pytest.approx(
            outcome.tuples / outcome.cycles)
        assert len(outcome.plans) >= 1  # skew handling planned at least once
        assert outcome.reschedules == 0  # threshold 0 disables monitoring
        assert session.total_cycles == outcome.cycles


def fast_histo_session():
    return StreamingSession(
        config=ArchitectureConfig(secpes=0, reschedule_threshold=0.0),
        kernel=HistogramKernel(bins=256, pripes=16), engine="fast")


class TestFootprintDoesNotGrowWithTheStream:
    """A session is three integers and the running result however many
    shards it served.  Pickle widens an int by at most three bytes as
    it grows (1 -> 4 byte operand), hence the 9-byte allowance; a
    per-shard record would add hundreds of bytes per shard."""

    def test_session_snapshot(self):
        session = fast_histo_session()
        batch = ZipfGenerator(alpha=1.2, seed=8).generate(20_000)
        sizes = {}
        for done in range(1, 1_001):
            session.process(batch.slice(20 * (done - 1), 20 * done))
            if done in (10, 1_000):
                sizes[done] = len(pickle.dumps(session.snapshot()))
        assert session.segments == 1_000
        assert 0 <= sizes[1_000] - sizes[10] <= 9

    def test_merged_session_a_pool_collects(self):
        sizes = {}
        for shards in (10, 1_000):
            pool = WorkerPool(2, lambda job_id: fast_histo_session(),
                              ServiceMetrics())
            pool.start()
            batch = ZipfGenerator(alpha=1.2, seed=8).generate(20 * shards)
            for i in range(shards):
                pool.dispatch(i % 2, WorkItem(
                    "job", batch.slice(20 * i, 20 * i + 20)))
            merged = pool.collect("job")
            pool.stop()
            assert merged.segments == shards
            sizes[shards] = len(pickle.dumps(merged.snapshot()))
        assert 0 <= sizes[1_000] - sizes[10] <= 9


@settings(deadline=None, max_examples=40)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=300),
                   min_size=1, max_size=12),
    owners=st.data(),
)
def test_merged_totals_are_the_sums_over_process_returns(sizes, owners):
    """Shards of any size on any partial, partials folded in any order
    through ``merge_from`` or ``absorb``: the merged session's three
    totals are the sums over what ``process`` returned."""
    batch = ZipfGenerator(alpha=1.0, seed=3).generate(sum(sizes))
    partials = [fast_histo_session() for _ in range(3)]
    outcomes, start = [], 0
    for size in sizes:
        partial = owners.draw(st.sampled_from(partials))
        outcomes.append(partial.process(batch.slice(start, start + size)))
        start += size
    merged = fast_histo_session()
    for partial in owners.draw(st.permutations(partials)):
        if owners.draw(st.booleans()):
            merged.merge_from(partial)
        else:
            merged.absorb(partial.snapshot())
    assert merged.segments == len(outcomes)
    assert merged.total_tuples == sum(o.tuples for o in outcomes)
    assert merged.total_cycles == sum(o.cycles for o in outcomes)
    assert merged.total_tuples == len(batch)


class TestHeavyHitterSession:
    def test_hitter_estimates_accumulate_across_segments(self):
        from repro.workloads.tuples import TupleBatch

        kernel = HeavyHitterKernel(threshold=200, pripes=16)
        session = make_session(kernel)
        rng = np.random.default_rng(12)
        for _ in range(3):  # 500 hot + 2000 noise tuples per segment
            keys = np.concatenate([
                np.full(500, 0xBEEF, dtype=np.uint64),
                rng.integers(0, 1 << 32, 2_000, dtype=np.uint64),
            ])
            rng.shuffle(keys)
            session.process(TupleBatch.from_keys(keys))
        assert 0xBEEF in session.result
        # Count-min estimates are upper bounds, so their sum is too.
        assert session.result[0xBEEF] >= 1_500


class TestMergeFrom:
    def test_partial_sessions_merge_like_one_session(self):
        """Two workers' partial streams merge into the whole-stream
        result (the serving layer's cross-worker collection path)."""
        batch = ZipfGenerator(alpha=1.5, seed=21).generate(8_000)
        kernel = HistogramKernel(bins=256, pripes=16)

        left = make_session(HistogramKernel(bins=256, pripes=16))
        right = make_session(HistogramKernel(bins=256, pripes=16))
        left.process(batch.slice(0, 4_000))
        right.process(batch.slice(4_000, 8_000))

        merged = make_session(HistogramKernel(bins=256, pripes=16))
        merged.merge_from(left)
        merged.merge_from(right)

        golden = kernel.golden(batch.keys, batch.values)
        assert np.array_equal(merged.result, golden)
        assert merged.total_tuples == 8_000
        assert merged.segments == 2
        assert merged.total_cycles == left.total_cycles + right.total_cycles

    def test_merge_into_empty_adopts_result(self):
        source = make_session(HistogramKernel(bins=256, pripes=16))
        source.process(ZipfGenerator(alpha=0.5, seed=2).generate(2_000))
        empty = make_session(HistogramKernel(bins=256, pripes=16))
        empty.merge_from(source)
        assert np.array_equal(empty.result, source.result)

    def test_cross_application_merge_rejected(self):
        histo = make_session(HistogramKernel(bins=256, pripes=16))
        hll = make_session(HyperLogLogKernel(precision=10, pripes=16))
        with pytest.raises(ValueError, match="different applications"):
            histo.merge_from(hll)


class TestHLLSession:
    def test_running_cardinality_max_folds(self):
        kernel = HyperLogLogKernel(precision=10, pripes=16)
        session = make_session(kernel)
        a = ZipfGenerator(alpha=0.0, seed=1).generate(8_000)
        b = ZipfGenerator(alpha=0.0, seed=2).generate(8_000)
        session.process(a)
        session.process(b)
        merged = a.concat(b)
        golden = kernel.golden(merged.keys, merged.values)
        assert np.array_equal(session.result, golden)


class TestPartitionSession:
    def test_partitions_extend_across_segments(self):
        kernel = PartitionKernel(radix_bits_count=6, pripes=16)
        session = make_session(kernel, secpes=4)
        a = ZipfGenerator(alpha=1.0, seed=3).generate(3_000)
        b = ZipfGenerator(alpha=1.0, seed=4).generate(3_000)
        session.process(a)
        session.process(b)
        merged = a.concat(b)
        golden = kernel.golden(merged.keys, merged.values)
        assert set(session.result) == set(golden)
        for part in golden:
            assert sorted(session.result[part]) == sorted(golden[part])

    def test_combine_consumes_first_and_leaves_second_alone(self):
        kernel = PartitionKernel(radix_bits_count=6, pripes=16)
        a = {1: [10, 11], 2: [20]}
        b = {2: [21, 22], 3: [30]}
        b_lists = dict(b)
        combined = kernel.combine_results(a, b)
        assert combined is a
        assert a == {1: [10, 11], 2: [20, 21, 22], 3: [30]}
        assert b == {2: [21, 22], 3: [30]}
        assert all(b[part] is chunk for part, chunk in b_lists.items())
        assert all(a[part] is not chunk for part, chunk in b.items())

    def test_folds_extend_the_running_lists(self):
        """Counted, not timed: a fold that copied the accumulated chunk
        lists (quadratic in segments) would hand back new list objects.
        Over 50 segments every partition keeps its one list."""
        kernel = PartitionKernel(radix_bits_count=6, pripes=16)
        session = StreamingSession(
            config=ArchitectureConfig(secpes=0, reschedule_threshold=0.0),
            kernel=kernel, engine="fast")
        batch = ZipfGenerator(alpha=1.0, seed=6).generate(50 * 200)
        lists = {}
        for segment in range(50):
            session.process(batch.slice(200 * segment, 200 * segment + 200))
            for part, chunk in lists.items():
                assert session.result[part] is chunk
            lists = dict(session.result)
        assert session.segments == 50
        golden = kernel.golden(batch.keys, batch.values)
        assert {part: sorted(chunk) for part, chunk in lists.items()} == {
            part: sorted(chunk) for part, chunk in golden.items()}


class TestEvolvingSession:
    def test_adapts_across_distribution_changes(self):
        """An evolving alpha=3 stream: every segment re-profiles (fresh
        pipeline per segment) so throughput stays near the planned rate
        rather than the unaided one."""
        kernel = HistogramKernel(bins=256, pripes=16)
        session = make_session(kernel, secpes=15)
        stream = EvolvingZipfStream(alpha=3.0, interval_tuples=6_000,
                                    total_tuples=18_000, base_seed=9)
        for segment in stream.segments():
            session.process(segment.batch)
        # Short segments pay the profiling + channel-drain transient
        # every time, so the rate sits well below the 7+ t/c steady
        # state — but far above the unaided 0.6 t/c.
        assert session.total_tuples / session.total_cycles > 1.5
        golden = kernel.golden(stream.materialize().keys,
                               np.zeros(18_000))
        assert np.array_equal(session.result, golden)


class TestCombineDefaults:
    def test_base_kernel_combiner_is_loud(self):
        class Bare(KernelSpec):
            def route(self, key):
                return 0

            def make_buffer(self):
                return []

            def process(self, buffer, key, value):
                pass

        with pytest.raises(NotImplementedError, match="combiner"):
            Bare().combine_results(1, 2)
