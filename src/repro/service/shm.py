"""Shared-memory slab arena: the process backend's window transport.

The paper's routing premise is that throughput dies when data movement
sits on the critical path, so windows cross the process boundary as a
*reference to a buffer*, not as a byte stream:

``SlabArena`` (parent / dispatcher side)
    A pool of ``multiprocessing.shared_memory`` slabs with a first-fit
    free-list allocator.  ``write_block()`` copies one child's staged
    windows — each part straight into its place, once — into a single
    block and returns a tiny picklable :class:`ShardDescriptor` (slab
    name, offset, dtypes, length, sequence number); that descriptor is
    all the pipe carries.  ``write()`` is the one-part block.

``SlabClient`` (child / worker side)
    Attaches slabs lazily on first use and builds NumPy views straight
    over the shared mapping with ``np.frombuffer`` — zero copies on the
    hot path.  Views are handed out read-only: kernels never mutate
    their input arrays (sessions retain no references to them either),
    and the read-only flag turns any future violation of that contract
    into a loud ``ValueError`` instead of silent cross-process
    corruption.

Reclamation needs no reverse pipe traffic.  The arena owns a small
shared *control block*: one ``int64`` consumed-sequence slot per child
(a *slot* is whatever id the writer files blocks under; the process
backend uses its child index, so each child has one ring).  Each
descriptor carries a per-slot monotone sequence number; the child
stores it into its slot after the block is processed, and the parent
lazily frees every block whose sequence the owner has consumed (a
per-slot FIFO ring, matching the pipe's FIFO delivery order).  Slot
stores/loads are single aligned 8-byte accesses — atomic on every
platform CPython runs on.

Lifecycle is observable: slab creation/recycling/teardown emit
``backend.slab.alloc`` / ``backend.slab.reuse`` / ``backend.slab.release``
trace events and bump the ``transport`` counters on
:class:`~repro.service.metrics.ServiceMetrics`.  When every slab is
full, a write returns None and the caller waits for the owners to
consume (the handshake above frees blocks); a block bigger than a slab
gets a slab of its own, past ``max_slabs`` only once nothing is
outstanding, so a lone oversize block always places.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import events as trace_events

#: Bytes per slab. Slabs are mapped whole in every attached process, so
#: a few generous slabs beat many small ones (fewer attach calls, less
#: free-list fragmentation).
DEFAULT_SLAB_BYTES = 4 << 20

#: Ceiling on lazily created slabs; past it, writes wait for consumed
#: blocks.
DEFAULT_MAX_SLABS = 16

#: Consumed-sequence slots in the control block (one per writer slot).
CTRL_SLOTS = 1024

#: Block alignment. 64 keeps every view cache-line aligned.
_ALIGNMENT = 64


def _align(nbytes: int) -> int:
    return (nbytes + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Python 3.13 grew ``track=False`` for attach-only opens.  On older
    runtimes the attach registers the segment with the resource
    tracker — but workers are *forked*, so they share the parent's
    tracker process, whose cache is a name set: the child's duplicate
    registration is a no-op and the parent's ``unlink`` balances it.
    Unregistering here would instead *remove* the parent's entry and
    make the real unlink warn.  So: no manual unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover — depends on Python version
        return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class ShardDescriptor:
    """Everything a child needs to view one block in shared memory.

    This — not the block's bytes — is what crosses the pipe: ~250 bytes
    of pickle regardless of block size.  The value array sits
    immediately after the (alignment-padded) key array inside the same
    block, so one ``(offset, length, dtypes)`` tuple locates both.  The
    dtypes travel as ``np.dtype`` objects, resolved once per block on
    each side.  ``seq`` is the per-slot consumed-sequence handshake
    token (see the module docstring).
    """

    slab: str
    offset: int
    length: int
    keys_dtype: np.dtype
    values_dtype: np.dtype
    seq: int

    @property
    def values_offset(self) -> int:
        return self.offset + _align(self.keys_dtype.itemsize * self.length)


def block_size(length: int, keys_dtype, values_dtype) -> int:
    """Bytes one shard occupies in a slab (both arrays, aligned)."""
    return (_align(np.dtype(keys_dtype).itemsize * length)
            + _align(np.dtype(values_dtype).itemsize * length))


class _Slab:
    """One shared-memory segment plus its free list.

    The free list is kept sorted by offset; ``allocate`` is first-fit,
    ``release`` coalesces with both neighbours, so steady-state serving
    (equal-sized shards in, equal-sized shards back) reuses the same
    handful of blocks instead of creeping through the slab.
    """

    __slots__ = ("shm", "name", "free", "recycled")

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self.shm = segment
        self.name = segment.name
        self.free: List[Tuple[int, int]] = [(0, segment.size)]
        #: True once any block has been released — allocations after
        #: that are (at least partly) recycled address space.
        self.recycled = False

    def allocate(self, nbytes: int) -> Optional[int]:
        for index, (offset, avail) in enumerate(self.free):
            if avail >= nbytes:
                if avail == nbytes:
                    del self.free[index]
                else:
                    self.free[index] = (offset + nbytes, avail - nbytes)
                return offset
        return None

    def release(self, offset: int, nbytes: int) -> None:
        self.recycled = True
        index = bisect.bisect_left(self.free, (offset, 0))
        self.free.insert(index, (offset, nbytes))
        after = index + 1
        if (after < len(self.free)
                and offset + nbytes == self.free[after][0]):
            self.free[index] = (offset, nbytes + self.free[after][1])
            del self.free[after]
        if index > 0:
            prev_off, prev_len = self.free[index - 1]
            if prev_off + prev_len == self.free[index][0]:
                self.free[index - 1] = (
                    prev_off, prev_len + self.free[index][1])
                del self.free[index]


class SlabArena:
    """Parent-side slab pool: write shards once, hand out descriptors.

    Owned by the :class:`~repro.service.procpool.ProcessBackend`;
    created at its ``start``, torn down (close + unlink, no ``/dev/shm``
    residue) at its ``stop``.  All calls come from the dispatcher
    thread — the only cross-process state is the control block, and
    its slots are single-writer (the owning child).
    """

    def __init__(
        self,
        slab_bytes: int = DEFAULT_SLAB_BYTES,
        max_slabs: int = DEFAULT_MAX_SLABS,
        metrics=None,
        tracer=None,
    ) -> None:
        if slab_bytes <= 0 or max_slabs <= 0:
            raise ValueError("slab_bytes and max_slabs must be positive")
        self.slab_bytes = int(slab_bytes)
        self.max_slabs = int(max_slabs)
        self.metrics = metrics
        self.tracer = tracer
        self._slabs: Dict[str, _Slab] = {}
        self._order: List[_Slab] = []
        #: Per-slot FIFO of in-flight blocks: (seq, slab, offset, size).
        self._rings: Dict[int, Deque[Tuple[int, str, int, int]]] = {}
        #: Per-slot monotone dispatch sequence.  Never reset while the
        #: arena lives — a respawned child continues its predecessor's
        #: numbering, so a stale consumed value written by the dead
        #: child can never reclaim a block the replacement still needs.
        self._seqs: Dict[int, int] = {}
        self._ctrl = shared_memory.SharedMemory(
            create=True, size=CTRL_SLOTS * 8)
        consumed = np.frombuffer(self._ctrl.buf, dtype=np.int64)
        consumed[:] = 0
        self._consumed: Optional[np.ndarray] = consumed
        self.closed = False

    @property
    def ctrl_name(self) -> str:
        """Control-block segment name (children attach to it by name)."""
        return self._ctrl.name

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def write(self, slot: int, keys: np.ndarray,
              values: np.ndarray) -> Optional[ShardDescriptor]:
        """Place one shard in shared memory: a one-part block."""
        return self.write_block(slot, (keys,), (values,))

    def write_block(self, slot: int,  # hot-path
                    keys: Sequence[np.ndarray],
                    values: Sequence[np.ndarray]) -> Optional[ShardDescriptor]:
        """Place the concatenation of several parts as one block.

        ``keys[i]`` and ``values[i]`` are one part; every part shares
        the first part's dtypes.  The transport's single copy happens
        here: each part is copied straight into its place in the slab.
        Returns None — never raises — while every slab is full at the
        ``max_slabs`` ceiling: the caller waits for owners to consume
        and retries.  ``slot`` must be below :data:`CTRL_SLOTS`.
        """
        self.reclaim()
        keys_dtype, values_dtype = keys[0].dtype, values[0].dtype
        length = sum(len(part) for part in keys)
        nbytes = block_size(length, keys_dtype, values_dtype)
        placed = self._place(nbytes)
        if placed is None:
            return None
        slab, offset = placed
        key_view = np.frombuffer(slab.shm.buf, dtype=keys_dtype,
                                 count=length, offset=offset)
        value_view = np.frombuffer(
            slab.shm.buf, dtype=values_dtype, count=length,
            offset=offset + _align(keys_dtype.itemsize * length))
        start = 0
        for key_part, value_part in zip(keys, values):
            stop = start + len(key_part)
            np.copyto(key_view[start:stop], key_part, casting="no")
            np.copyto(value_view[start:stop], value_part, casting="no")
            start = stop
        del key_view, value_view  # views pin the mapping; drop them now
        seq = self._seqs.get(slot, 0) + 1
        self._seqs[slot] = seq
        self._rings.setdefault(slot, deque()).append(
            (seq, slab.name, offset, nbytes))
        if slab.recycled:
            if self.metrics is not None:
                self.metrics.record_transport(slab_blocks_reused=1)
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit(trace_events.BACKEND_SLAB_REUSE,
                                 worker=slot, slab=slab.name,
                                 offset=offset, nbytes=nbytes)
        return ShardDescriptor(slab.name, offset, length, keys_dtype,
                               values_dtype, seq)

    def reclaim(self) -> None:  # hot-path
        """Free every block whose owner has consumed past its sequence."""
        assert self._consumed is not None
        for slot, ring in self._rings.items():
            if not ring:
                continue
            consumed = int(self._consumed[slot])
            while ring and ring[0][0] <= consumed:
                _, slab_name, offset, nbytes = ring.popleft()
                self._slabs[slab_name].release(offset, nbytes)

    def release_worker(self, slot: int) -> None:
        """Free one slot's in-flight blocks unconditionally.

        Called when the owning child died: its views died with it, so
        nobody will read those blocks again.  The sequence counter is
        *not* reset; see its comment.
        """
        ring = self._rings.pop(slot, None)
        if not ring:
            return
        for _, slab_name, offset, nbytes in ring:
            self._slabs[slab_name].release(offset, nbytes)

    def holders(self) -> List[int]:
        """Slots with in-flight (unreclaimed) blocks, post-reclaim."""
        self.reclaim()
        return [slot for slot, ring in self._rings.items() if ring]

    def outstanding(self) -> int:
        """In-flight (unreclaimed) block count, post-reclaim — for tests."""
        self.reclaim()
        return sum(len(ring) for ring in self._rings.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink everything; no ``/dev/shm`` residue survives this."""
        if self.closed:
            return
        self.closed = True
        self._rings.clear()
        self._seqs.clear()
        self._consumed = None  # drop the view so the mapping can close
        for slab in self._order:
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit(trace_events.BACKEND_SLAB_RELEASE,
                                 slab=slab.name, nbytes=slab.shm.size)
            if self.metrics is not None:
                self.metrics.record_transport(slabs_released=1)
            slab.shm.close()
            slab.shm.unlink()
        self._slabs.clear()
        self._order = []
        self._ctrl.close()
        self._ctrl.unlink()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, nbytes: int) -> Optional[Tuple[_Slab, int]]:
        # First fit, else a new slab of max(slab_bytes, nbytes): past
        # max_slabs only when nothing is outstanding (no wait can help).
        for slab in self._order:
            offset = slab.allocate(nbytes)
            if offset is not None:
                return slab, offset
        if len(self._order) >= self.max_slabs and any(self._rings.values()):
            return None
        slab = _Slab(shared_memory.SharedMemory(
            create=True, size=max(self.slab_bytes, nbytes)))
        self._slabs[slab.name] = slab
        self._order.append(slab)
        if self.metrics is not None:
            self.metrics.record_transport(slabs_allocated=1)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(trace_events.BACKEND_SLAB_ALLOC,
                             slab=slab.name, nbytes=slab.shm.size,
                             slabs=len(self._order))
        offset = slab.allocate(nbytes)
        return slab, offset


class SlabClient:
    """Child-side arena access: lazy attaches, zero-copy views.

    One per warm child (built in ``_child_main`` from the control
    block name the parent passes).  The child never closes or unlinks
    segments — the parent owns them; process exit unmaps.
    """

    def __init__(self, ctrl_name: str) -> None:
        self._ctrl = _attach(ctrl_name)
        self._consumed = np.frombuffer(self._ctrl.buf, dtype=np.int64)
        self._slabs: Dict[str, shared_memory.SharedMemory] = {}

    def views(self, desc: ShardDescriptor) -> Tuple[np.ndarray, np.ndarray]:  # hot-path
        """Read-only key/value views straight over the shared block."""
        segment = self._slabs.get(desc.slab)
        if segment is None:
            segment = _attach(desc.slab)
            self._slabs[desc.slab] = segment
        keys = np.frombuffer(segment.buf, dtype=desc.keys_dtype,
                             count=desc.length, offset=desc.offset)
        values = np.frombuffer(segment.buf, dtype=desc.values_dtype,
                               count=desc.length, offset=desc.values_offset)
        keys.flags.writeable = False
        values.flags.writeable = False
        return keys, values

    def done(self, slot: int, seq: int) -> None:  # hot-path
        """Publish "processed through ``seq``" — frees blocks parent-side."""
        self._consumed[slot] = seq

    def detach(self) -> None:
        """Drop views and close mappings — the child's exit path.

        Without this, the segments' ``__del__`` at interpreter shutdown
        races the numpy views and spews ``BufferError`` noise.  Never
        unlinks: the parent owns the segments.
        """
        self._consumed = None
        for segment in self._slabs.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover — a view still live
                pass
        self._slabs.clear()
        try:
            self._ctrl.close()
        except BufferError:  # pragma: no cover
            pass
