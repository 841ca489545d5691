"""The fast path's kernel contract: ``process_routed`` ≡ the ``process`` loop.

:func:`repro.core.fastpath.run_fast` hands every kernel a whole routed
shard in one :meth:`~repro.core.kernel.KernelSpec.process_routed` call.
Whatever one-pass reduction a kernel implements there must leave the PE
array in the state the per-tuple PE body would: arrays bit-equal, DP
partition lists in stream order, HHD sketches and candidate estimates
equal — on cold buffers and on buffers an earlier shard already warmed.

One thing is pinned separately because the loop cannot define it: the
*position* of the dict keys a shard adds (DP partition ids, HHD
candidates).  The loop inserts a key when it first shows up in the
stream; the vectorised hooks insert a shard's new keys in ascending
order after the keys already present.  A result's pickle — and so the
benchmark's ``result_digest`` — sees that order, so it may not drift.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.heavy_hitter import HeavyHitterKernel, SketchBuffer
from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.pagerank import PageRankKernel
from repro.apps.partition import PartitionKernel

VERTICES = 61  # not a multiple of either PE count: the last slots are ragged


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


def routed_shard(kernel, shard):
    """Read-only ``(destinations, keys, prepared values)`` of a shard —
    what ``run_fast`` passes, as the shm transport delivers it."""
    raw_keys, value_seed, single_pe = shard
    keys = np.array(raw_keys, dtype=np.uint64)
    if isinstance(kernel, PageRankKernel):
        keys %= np.uint64(VERTICES)
    values = np.random.default_rng(value_seed).integers(
        0, VERTICES, keys.size, dtype=np.int64)
    destinations = np.asarray(kernel.route_array(keys), dtype=np.int64)
    if single_pe:
        keep = destinations == destinations[0]
        destinations, keys, values = (
            destinations[keep], keys[keep], values[keep])
    values = kernel.prepare_value_array(keys, values)
    for array in (destinations, keys, values):
        array.setflags(write=False)
    return destinations, keys, values


def dict_of(buffer):
    """The insertion-ordered dict a buffer carries, if any."""
    if isinstance(buffer, SketchBuffer):
        return buffer.candidates
    return buffer if isinstance(buffer, dict) else None


def assert_same_state(ours, theirs):
    if isinstance(ours, SketchBuffer):
        assert_same_state(ours.cms, theirs.cms)
        ours, theirs = ours.candidates, theirs.candidates
    if isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    else:
        assert ours == theirs  # dict of lists: stream order inside each


@pytest.mark.parametrize("pripes", [4, 16])
@pytest.mark.parametrize("app", sorted(KERNELS))
@settings(deadline=None, max_examples=40)
@given(first=shards, second=shards)
@example(first=([3], 0, False), second=([3], 1, False))
@example(first=([0, 1, 2, 3, 4, 5, 6, 7] * 6, 2, True),
         second=([7, 6, 5, 4, 3, 2, 1, 0] * 6, 3, True))
def test_process_routed_equals_the_per_tuple_loop(app, pripes, first, second):
    kernel = KERNELS[app](pripes)
    routed = [kernel.make_buffer() for _ in range(pripes)]
    looped = [kernel.make_buffer() for _ in range(pripes)]
    for shard in (first, second):  # the second meets warm buffers
        destinations, keys, values = routed_shard(kernel, shard)
        present = [list(dict_of(buffer) or ()) for buffer in routed]

        kernel.process_routed(routed, destinations, keys, values)
        for pe, key, value in zip(destinations.tolist(), keys.tolist(),
                                  values.tolist()):
            kernel.process(looped[pe], key, value)

        for ours, theirs, before in zip(routed, looped, present):
            assert_same_state(ours, theirs)
            if dict_of(ours) is not None:
                order = list(dict_of(ours))
                assert order[:len(before)] == before
                assert order[len(before):] == sorted(order[len(before):])
