"""Generated exhaustion schedules for the shared-memory slab arena.

The process backend never falls back when the arena is full: it waits
for the consumed-sequence handshake to free a block and retries.  That
is only sound if the arena itself keeps four promises, driven here
directly — no subprocess — with random shard sizes against a tiny arena
and random consumed-sequence publications:

* a refused write always has something outstanding to wait for, so
  every write eventually places;
* live blocks never overlap each other or the free list, and a shard's
  view reads back exactly what was written until it is consumed;
* once every owner has consumed, ``outstanding()`` is 0;
* a shard bigger than a slab places as soon as nothing is outstanding
  (in a slab of its own, past ``max_slabs`` if need be), and the arena
  grows past ``max_slabs`` at no other time.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.service import SlabArena, SlabClient
from repro.service.shm import block_size

WORKERS = 3
MAX_SLABS = 2
#: Three 16-tuple blocks per slab; shards of up to 60 tuples overflow it.
SLAB_BYTES = 3 * block_size(16, np.uint64, np.int64)


class ArenaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.arena = SlabArena(slab_bytes=SLAB_BYTES, max_slabs=MAX_SLABS)
        self.client = SlabClient(self.arena.ctrl_name)
        #: Per worker, the placed shards not yet consumed, in FIFO
        #: order: (descriptor, first key).  Shard keys are unique.
        self.inflight = {worker: deque() for worker in range(WORKERS)}
        #: Writes the arena refused, (worker, tuples), in order.
        self.waiting = deque()
        self.next_key = 0

    def _write(self, worker, tuples):
        """One write; True if it placed.  Checks the growth rule."""
        idle = self.arena.outstanding() == 0
        slabs = len(self.arena._order)
        first = self.next_key
        keys = np.arange(first, first + tuples, dtype=np.uint64)
        desc = self.arena.write(worker, keys, -keys.astype(np.int64))
        if desc is None:
            # Refusal is only ever "wait": something can still free.
            assert not idle
            assert len(self.arena._order) == slabs
            return False
        self.next_key += tuples
        if len(self.arena._order) > max(slabs, MAX_SLABS):
            assert idle
        self.inflight[worker].append((desc, first))
        return True

    def _consume(self, worker, count):
        ring = self.inflight[worker]
        last = None
        for _ in range(min(count, len(ring))):
            desc, first = ring.popleft()
            keys, values = self.client.views(desc)
            expected = np.arange(first, first + desc.length,
                                 dtype=np.uint64)
            assert np.array_equal(keys, expected)
            assert np.array_equal(values, -expected.astype(np.int64))
            del keys, values
            last = desc
        if last is not None:
            self.client.done(worker, last.seq)

    def _consume_all(self):
        for worker in range(WORKERS):
            self._consume(worker, len(self.inflight[worker]))
        assert self.arena.outstanding() == 0
        for slab in self.arena._order:  # freed blocks coalesced back
            assert slab.free == [(0, slab.shm.size)]

    @rule(worker=st.integers(0, WORKERS - 1), tuples=st.integers(1, 60))
    def write(self, worker, tuples):
        # Refused writes queue behind earlier ones, as a dispatcher
        # blocked on the arena would.
        if self.waiting or not self._write(worker, tuples):
            self.waiting.append((worker, tuples))

    @rule(worker=st.integers(0, WORKERS - 1), count=st.integers(1, 3))
    def consume(self, worker, count):
        self._consume(worker, count)

    @rule()
    def retry_waiting(self):
        while self.waiting and self._write(*self.waiting[0]):
            self.waiting.popleft()

    @rule()
    def drain(self):
        """Every waiting write places once its predecessors consumed."""
        self._consume_all()
        while self.waiting:
            assert self._write(*self.waiting.popleft())
            self._consume_all()

    @invariant()
    def live_blocks_never_overlap(self):
        for slab in self.arena._order:
            spans = sorted(
                [(offset, nbytes)
                 for ring in self.arena._rings.values()
                 for _, name, offset, nbytes in ring
                 if name == slab.name]
                + list(slab.free))
            end = 0
            for offset, nbytes in spans:
                assert offset >= end, (slab.name, spans)
                end = offset + nbytes
            assert end <= slab.shm.size

    def teardown(self):
        try:
            self.drain()
        finally:
            self.client.detach()
            self.arena.close()


TestArenaMachine = ArenaMachine.TestCase
TestArenaMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)


@settings(max_examples=40, deadline=None)
@given(key_dtype=st.sampled_from(("uint16", "uint32", "uint64")),
       value_dtype=st.sampled_from(("int8", "int16", "int32", "int64")),
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_blocks_of_mixed_dtypes_pack_without_overlap(key_dtype,
                                                     value_dtype, lengths):
    """Any dtype pair and length packs into 64-byte-aligned blocks:
    every shard of a burst reads back exactly, in its own dtypes, until
    consumed."""
    arena = SlabArena(slab_bytes=SLAB_BYTES, max_slabs=MAX_SLABS)
    client = SlabClient(arena.ctrl_name)
    try:
        shards = []
        for index, length in enumerate(lengths):
            keys = (np.arange(length) + index).astype(key_dtype)
            values = (-np.arange(length) - index).astype(value_dtype)
            desc = arena.write(0, keys, values)
            if desc is None:  # full: this burst ends here
                assert arena.outstanding() > 0
                break
            assert desc.offset % 64 == 0
            shards.append((desc, keys, values))
        for desc, keys, values in shards:
            seen_keys, seen_values = client.views(desc)
            assert seen_keys.dtype == keys.dtype
            assert seen_values.dtype == values.dtype
            assert np.array_equal(seen_keys, keys)
            assert np.array_equal(seen_values, values)
            del seen_keys, seen_values
        if shards:
            client.done(0, shards[-1][0].seq)
        assert arena.outstanding() == 0
    finally:
        client.detach()
        arena.close()
