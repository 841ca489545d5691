"""Data partitioning: radix correctness, non-decomposability, collect."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.apps.partition import PartitionKernel, golden_partition
from repro.core.kernel import KernelSpec
from repro.core.profiler import greedy_secpe_plan
from repro.service.balancer import SkewAwareBalancer
from repro.workloads.tuples import TupleBatch


def test_validation():
    with pytest.raises(ValueError):
        PartitionKernel(radix_bits_count=0)
    with pytest.raises(ValueError):
        PartitionKernel(radix_bits_count=2, pripes=16)   # fanout < PEs


def test_marked_non_decomposable():
    assert PartitionKernel(radix_bits_count=8).decomposable is False


def test_partition_and_route_relationship():
    kernel = PartitionKernel(radix_bits_count=8, pripes=16)
    for key in range(512):
        assert kernel.route(key) == kernel.partition_of(key) % 16


@given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                min_size=1, max_size=400))
def test_property_partitions_are_a_partition(keys):
    """Every key lands in exactly one partition; nothing lost."""
    result = golden_partition(np.array(keys, dtype=np.uint64),
                              radix_bits_count=6)
    flat = [k for chunk in result.values() for k in chunk]
    assert sorted(flat) == sorted(keys)
    for part, chunk in result.items():
        assert all(k & 0x3F == part for k in chunk)


def test_collect_unions_pe_output_spaces():
    """SecPE chunks concatenate with PriPE chunks per partition —
    'output results to their own memory space'."""
    kernel = PartitionKernel(radix_bits_count=6, pripes=16)
    pri = {5: [100, 200]}
    sec = {5: [300], 9: [400]}
    result = kernel.collect([pri, sec])
    assert sorted(result[5]) == [100, 200, 300]
    assert result[9] == [400]


def test_process_buckets_by_partition():
    kernel = PartitionKernel(radix_bits_count=6, pripes=16)
    buffer = kernel.make_buffer()
    kernel.process(buffer, 0b101010, 0)
    kernel.process(buffer, 0b101010 | (1 << 20), 0)   # same low bits
    assert list(buffer) == [0b101010]
    assert len(buffer[0b101010]) == 2


def test_golden_groups_match_manual():
    keys = np.array([0, 1, 64, 65, 2], dtype=np.uint64)
    result = golden_partition(keys, radix_bits_count=6)
    assert sorted(result[0]) == [0, 64]
    assert sorted(result[1]) == [1, 65]
    assert result[2] == [2]


#: Keys over a tiny universe (long chunks) or the whole ``uint64`` range.
window_keys = st.lists(st.one_of(st.integers(0, 63),
                                 st.integers(0, (1 << 64) - 1)),
                       min_size=1, max_size=300)


def looped(kernel, keys):
    """``collect`` after every key went through ``process`` into its
    PE's fresh buffer: what ``process_shard`` must return, up to the
    order of the partitions."""
    buffers = [kernel.make_buffer() for _ in range(kernel.pripes)]
    for key in keys.tolist():
        kernel.process(buffers[kernel.route(key)], key, 0)
    return kernel.collect(buffers)


@given(keys=window_keys, pripes=st.sampled_from([1, 3, 4, 12, 16]))
def test_process_shard_equals_the_per_tuple_loop(keys, pripes):
    # PE counts that are not powers of two included: a partition's rank
    # within its PE must still order the PE's partitions.
    kernel = PartitionKernel(radix_bits_count=6, pripes=pripes)
    keys = np.array(keys, dtype=np.uint64)
    destinations, result = kernel.process_shard(keys, np.zeros(keys.size))
    assert destinations.tolist() == [kernel.route(key)
                                     for key in keys.tolist()]
    assert result == looped(kernel, keys)  # stream order in each chunk
    # PE-major as collect walks the PEs, ascending within a PE.
    assert list(result) == sorted(result, key=lambda part: (part % pripes,
                                                            part))


@given(seed=st.integers(0, 1 << 16), tuples=st.integers(1, 2_000),
       universe=st.sampled_from([64, 1 << 64]),
       pripes=st.sampled_from([3, 16]), workers=st.integers(1, 6),
       data=st.data())
def test_process_lanes_gives_each_worker_its_own_partitions(
        seed, tuples, universe, pripes, workers, data):
    """One pass over the window equals the default hook, the exact
    per-worker gather and ``process_shard``, under any plan."""
    kernel = PartitionKernel(radix_bits_count=6, pripes=pripes)
    keys = np.random.default_rng(seed).integers(
        0, universe, tuples, dtype=np.uint64)
    batch = TupleBatch(keys, np.zeros(keys.size, dtype=np.int64))
    balancer = SkewAwareBalancer(
        workers, secondaries=data.draw(st.integers(0, workers - 1)))
    if balancer.secondaries:
        balancer.apply_plan(greedy_secpe_plan(
            data.draw(st.lists(st.integers(0, 50),
                               min_size=balancer.primaries,
                               max_size=balancer.primaries)),
            balancer.secondaries, balancer.primaries))
    lanes = balancer.route().lanes(batch)

    destinations, results = kernel.process_lanes(keys, batch.values, lanes)
    expected_destinations, expected = KernelSpec.process_lanes(
        kernel, keys, batch.values, lanes)
    assert np.array_equal(destinations, expected_destinations)
    split = lanes.split(batch)
    assert [pickle.dumps(results[worker]) for worker in split] \
        == [pickle.dumps(expected[worker]) for worker in split]
    assert all(results[worker] == {} for worker in range(len(results))
               if worker not in split)
