"""MurmurHash3: reference vectors, scalar/vector agreement, mixing."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.hashing.murmur3 import (
    fmix64,
    fmix64_array,
    murmur3_32,
    murmur3_32_array,
)
from repro.service.balancer import FLEET_SHARD_SEED, SkewAwareBalancer

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestReferenceVectors:
    """Known outputs of the canonical smhasher implementation."""

    @pytest.mark.parametrize("data,seed,expected", [
        (b"", 0, 0),
        (b"", 1, 0x514E28B7),
        (b"hello", 0, 0x248BFA47),
        (b"hello, world", 0, 0x149BBB7F),
        (b"The quick brown fox jumps over the lazy dog", 0, 0x2E4FF723),
        (b"\xff\xff\xff\xff", 0, 0x76293B50),
        (b"!Ce\x87", 0, 0xF55B516B),  # bytes 0x21436587
    ])
    def test_known_vectors(self, data, seed, expected):
        assert murmur3_32(data, seed) == expected

    def test_int_key_hashes_as_8_le_bytes(self):
        key = 0x0123456789ABCDEF
        assert murmur3_32(key) == murmur3_32(key.to_bytes(8, "little"))


class TestVectorisedAgreement:
    @given(st.lists(U64, min_size=1, max_size=64))
    def test_murmur_array_matches_scalar(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        vec = murmur3_32_array(arr)
        for key, value in zip(keys, vec):
            assert murmur3_32(key) == int(value)

    @given(st.lists(U64, min_size=1, max_size=64))
    def test_fmix_array_matches_scalar(self, keys):
        arr = np.array(keys, dtype=np.uint64)
        vec = fmix64_array(arr)
        for key, value in zip(keys, vec):
            assert fmix64(key) == int(value)


#: The seeds the fleet hashes with, plus both ends of the 32-bit range.
SEEDS = st.sampled_from([0, FLEET_SHARD_SEED, SkewAwareBalancer.TEAM_SEED,
                         (1 << 32) - 1])


def laid_out(keys, layout):
    """``keys`` as one of the array layouts the fleet can hand in."""
    flat = np.array(keys, dtype=np.uint64)
    if layout == "0-d":
        return np.array(keys[0] if keys else 0, dtype=np.uint64)
    if layout == "2-D":
        return flat[:flat.size // 2 * 2].reshape(2, -1)
    if layout == "strided":
        return flat[::-2]  # non-contiguous, negative stride
    if layout == "read-only":  # what the shm transport hands kernels
        flat.setflags(write=False)
        return flat
    if layout == ">u8":
        return flat.astype(">u8")
    if layout == "int64":  # keys >= 2**63 read as negative values
        return flat.view(np.int64)
    return flat


class TestLayouts:
    """The fused ``uint32`` pass equals the scalar hash on every layout,
    byte order and dtype the balancer may see, keeping the input's
    shape."""

    @given(keys=st.lists(U64, max_size=48), seed=SEEDS,
           layout=st.sampled_from(["flat", "0-d", "2-D", "strided",
                                   "read-only", ">u8", "int64"]))
    @example(keys=[], seed=0, layout="flat")
    @example(keys=[(1 << 64) - 1, 1 << 63, 5], seed=FLEET_SHARD_SEED,
             layout="int64")
    def test_array_matches_scalar(self, keys, seed, layout):
        arr = laid_out(keys, layout)
        before = arr.copy()
        hashed = murmur3_32_array(arr, seed)
        # The reference wraps signed keys as np.asarray(..., uint64) does.
        wrapped = np.asarray(arr, dtype=np.uint64)
        expected = [murmur3_32(key, seed) for key in wrapped.ravel().tolist()]
        assert hashed.dtype == np.uint32
        assert hashed.shape == arr.shape
        assert hashed.ravel().tolist() == expected
        assert np.array_equal(arr, before)


class TestMixingProperties:
    @given(U64, U64)
    def test_fmix64_is_injective_on_samples(self, a, b):
        """fmix64 is a bijection on 64-bit ints: distinct inputs give
        distinct outputs."""
        if a != b:
            assert fmix64(a) != fmix64(b)

    def test_fmix64_avalanche(self):
        """Flipping one input bit flips ~half the output bits."""
        rng = np.random.default_rng(0)
        flips = []
        for _ in range(200):
            x = int(rng.integers(0, 1 << 63))
            bit = int(rng.integers(0, 64))
            diff = fmix64(x) ^ fmix64(x ^ (1 << bit))
            flips.append(bin(diff).count("1"))
        assert 24 < np.mean(flips) < 40

    def test_output_range(self):
        assert 0 <= murmur3_32(b"anything") < (1 << 32)
        assert 0 <= fmix64((1 << 64) - 1) < (1 << 64)
