"""The fast path's kernel contract: ``process_shard`` ≡ the ``process`` loop.

:func:`repro.core.fastpath.run_fast` hands every kernel a whole shard in
one :meth:`~repro.core.kernel.KernelSpec.process_shard` call and takes
back ``(destinations, result)``.  Whatever one-pass reduction a kernel
implements there must return what the per-tuple PE body leaves behind:
``destinations`` the ``route`` of every key, ``result`` the ``collect``
of a fresh PE array after every tuple was ``prepare_value``d and
``process``ed into its PE — arrays bit-equal with equal dtype, DP
partition lists in stream order, HHD estimates equal.

Three things are pinned separately because the loop cannot define them.
The *position* of the dict keys in a result (DP partition ids, HHD
hitters): the loop inserts a key when it first shows up in the stream,
the vectorised hooks yield PE-major order, ascending within a PE; a
result's pickle — and so the benchmark's ``result_digest`` — sees that
order, so it may not drift.  And the two properties the shm transport
relies on: a hook never writes to its inputs (they are read-only slab
views there) and never returns memory shared with them (the slab is
recycled right after the call).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.heavy_hitter import HeavyHitterKernel
from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.pagerank import PageRankKernel
from repro.apps.partition import PartitionKernel
from repro.core.config import ArchitectureConfig
from repro.runtime import StreamingSession
from repro.workloads.tuples import TupleBatch

VERTICES = 61  # not a multiple of either PE count: the last slots are ragged
SLOTS = 64     # ... and 61..63 fall in their tail under both PE counts


def _pagerank(pripes):
    kernel = PageRankKernel(VERTICES, pripes=pripes)
    kernel.set_contributions(
        np.random.default_rng(5).integers(0, 1 << 40, VERTICES))
    return kernel


KERNELS = {
    "histo": lambda pripes: HistogramKernel(bins=64, pripes=pripes),
    "hll": lambda pripes: HyperLogLogKernel(precision=6, pripes=pripes),
    "pagerank": _pagerank,
    "dp": lambda pripes: PartitionKernel(radix_bits_count=6, pripes=pripes),
    # A narrow sketch and a low track line: collisions across keys and
    # candidacy flips inside one shard are the common case.
    "hhd": lambda pripes: HeavyHitterKernel(
        depth=3, width=8, threshold=6, track_fraction=0.5, pripes=pripes),
}

#: ``(keys, value seed, keep only the first key's PE)``.  Mixing a tiny
#: universe with the whole ``uint64`` range gives duplicate-heavy
#: shards, shards of distinct keys and everything between.
shards = st.tuples(
    st.lists(st.one_of(st.integers(0, 7), st.integers(0, (1 << 64) - 1)),
             min_size=1, max_size=120),
    st.integers(0, 1 << 16),
    st.booleans(),
)


def shard_arrays(kernel, shard):
    """Read-only ``(keys, values)`` of a shard — what ``run_fast``
    passes, as the shm transport delivers it."""
    raw_keys, value_seed, single_pe = shard
    keys = np.array(raw_keys, dtype=np.uint64)
    if isinstance(kernel, PageRankKernel):
        keys %= np.uint64(SLOTS)
    values = np.random.default_rng(value_seed).integers(
        0, VERTICES, keys.size, dtype=np.int64)
    if single_pe:
        destinations = np.asarray(kernel.route_array(keys))
        keep = destinations == destinations[0]
        keys, values = keys[keep], values[keep]
    keys.setflags(write=False)
    values.setflags(write=False)
    return keys, values


def looped(kernel, keys, values):
    """``(destinations, result)`` by the PrePE and PE bodies, per tuple."""
    buffers = [kernel.make_buffer() for _ in range(kernel.pripes)]
    destinations = []
    for key, value in zip(keys.tolist(), values.tolist()):
        destinations.append(kernel.route(key))
        kernel.process(buffers[destinations[-1]], key,
                       kernel.prepare_value(key, value))
    return destinations, kernel.collect(buffers)


def arrays_in(result):
    if isinstance(result, np.ndarray):
        return [result]
    return [item for item in result.values() if isinstance(item, np.ndarray)]


def assert_same_result(ours, theirs):
    if isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    else:
        assert ours == theirs  # DP: dict of lists, stream order inside each


@pytest.mark.parametrize("pripes", [4, 16])
@pytest.mark.parametrize("app", sorted(KERNELS))
@settings(deadline=None, max_examples=40)
@given(first=shards, second=shards)
@example(first=([3], 0, False), second=([3], 1, False))
@example(first=([0, 1, 2, 3, 4, 5, 6, 7] * 6, 2, True),
         second=([7, 6, 5, 4, 3, 2, 1, 0] * 6, 3, True))
@example(first=([61, 62, 63, 60, 0], 4, False), second=([63] * 9, 5, False))
def test_process_shard_equals_the_per_tuple_loop(app, pripes, first, second):
    kernel = KERNELS[app](pripes)
    session = StreamingSession(
        config=ArchitectureConfig(pripes=pripes), kernel=kernel,
        engine="fast")
    expected = []
    for shard in (first, second):
        keys, values = shard_arrays(kernel, shard)
        destinations, result = kernel.process_shard(keys, values)
        loop_destinations, loop_result = looped(kernel, keys, values)
        expected.append(loop_result)

        assert destinations.dtype == np.int64
        assert destinations.tolist() == loop_destinations
        assert_same_result(result, loop_result)
        for array in arrays_in(result):
            assert not np.shares_memory(array, keys)
            assert not np.shares_memory(array, values)
        if isinstance(result, dict):
            # PE-major as collect walks the PEs, ascending within a PE.
            owner = dict(zip(keys.tolist(), loop_destinations))
            if app == "dp":
                owner = {part: part % pripes for part in result}
            assert list(result) == sorted(
                result, key=lambda key: (owner[key], key))

        # Each shard meets a fresh PE array; the session folds results.
        session.process(TupleBatch(keys, values))
    assert_same_result(session.result, kernel.combine_results(*expected))
