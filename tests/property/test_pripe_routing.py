"""Slot -> PriPE routing: the mask path and its ``%`` fallback agree.

:meth:`repro.core.kernel.KernelSpec.pripe_of` takes a slot's low bits
with ``& (M - 1)`` when the PriPE count M is a power of two and falls
back to ``% M`` otherwise.  Ditto's generator sizes M as
``lanes * ii_pe // ii_prepe``, so counts such as 6 and 12 occur.  For
every kernel whose constructor accepts such a count, the fused hook's
destinations, ``route_array`` and the scalar ``route`` must agree, on
both sides of the branch.  HLL's register file must divide by M, so it
only takes powers of two.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.heavy_hitter import HeavyHitterKernel
from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.pagerank import PageRankKernel
from repro.apps.partition import PartitionKernel
from repro.core.kernel import KernelSpec

VERTICES = 50


def _pagerank(pripes):
    kernel = PageRankKernel(VERTICES, pripes=pripes)
    kernel.set_contributions(np.arange(VERTICES, dtype=np.int64))
    return kernel


KERNELS = {
    # 96 bins: not a power of two, so binning is ``key % bins`` too.
    "histo": lambda pripes: HistogramKernel(bins=96, pripes=pripes),
    "dp": lambda pripes: PartitionKernel(radix_bits_count=6, pripes=pripes),
    "pagerank": _pagerank,
    "hhd": lambda pripes: HeavyHitterKernel(depth=2, width=8, pripes=pripes),
}

#: 6 and 12 take the ``%`` fallback; 4 and 16 the mask.
PRIPES = (4, 6, 12, 16)

keys = st.lists(st.one_of(st.integers(0, 63), st.integers(0, (1 << 64) - 1)),
                min_size=1, max_size=100)


@pytest.mark.parametrize("pripes", PRIPES)
@pytest.mark.parametrize("app", sorted(KERNELS))
@settings(deadline=None, max_examples=40)
@given(raw=keys)
def test_hook_route_array_and_route_agree(app, pripes, raw):
    kernel = KERNELS[app](pripes)
    arr = np.array(raw, dtype=np.uint64)
    if isinstance(kernel, PageRankKernel):
        arr %= np.uint64(VERTICES)  # the hook rejects unknown vertices
    arr.setflags(write=False)
    values = np.zeros(arr.size, dtype=np.int64)
    destinations, _ = kernel.process_shard(arr, values)
    routed = kernel.route_array(arr)
    assert destinations.dtype == routed.dtype == np.int64
    assert destinations.tolist() == routed.tolist() \
        == [kernel.route(key) for key in arr.tolist()]


class _Bare(KernelSpec):
    """The bare helper, with no kernel's slot arithmetic around it."""

    def route(self, key):
        return key % self.pripes

    def make_buffer(self):
        return None

    def process(self, buffer, key, value):
        pass


@settings(deadline=None, max_examples=60)
@given(raw=keys, pripes=st.integers(1, 40),
       dtype=st.sampled_from([np.int64, np.uint64]))
def test_pripe_of_equals_modulus(raw, pripes, dtype):
    kernel = _Bare()
    kernel.pripes = pripes
    slots = np.array(raw, dtype=np.uint64)
    if dtype is np.int64:  # signed slot indices are non-negative
        slots = (slots >> np.uint64(1)).astype(np.int64)
    routed = kernel.pripe_of(slots)
    assert routed.dtype == np.int64
    assert routed.tolist() == [int(slot) % pripes for slot in slots.tolist()]


@pytest.mark.parametrize("pripes", [6, 12])
def test_hll_needs_a_power_of_two(pripes):
    with pytest.raises(ValueError, match="divide by the PE count"):
        HyperLogLogKernel(precision=6, pripes=pripes)
