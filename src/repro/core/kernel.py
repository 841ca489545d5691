"""The kernel contract between applications and the architecture.

Ditto's programming interface (paper §V-B, Listing 2) asks the developer
for two pieces of logic: the PrePE body (key extraction + routing rule)
and the PriPE/SecPE body (the buffer update).  :class:`KernelSpec` is the
Python equivalent of that HLS template: the five applications implement
it once and both the cycle-level simulator and the vectorised performance
models consume it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Tuple

import numpy as np


class KernelSpec(ABC):
    """Application logic plugged into the skew-oblivious template.

    The contract mirrors Listing 2:

    * :meth:`route` is the PrePE body — it turns a key into the designated
      PriPE ID (line 5 of Listing 2: ``dst = tuple.key & 0xf``).
    * :meth:`process` is the PriPE/SecPE body — it applies one tuple to a
      private buffer (lines 14-15: ``hist[HASH(tuple.key)]++``).
    * :meth:`process_shard` is the whole pipeline at once — it routes
      a shard and applies it to a fresh PE array in one vectorised pass
      (the fast path's hook; defaults to looping :meth:`process`).
    * :meth:`make_buffer` builds one PE's private buffer.
    * :meth:`merge_into` folds a SecPE's partial buffer into a PriPE's
      (the merger module), for *decomposable* applications.
    * Non-decomposable applications (data partitioning) set
      :attr:`decomposable` to False; their SecPEs "output results to
      their own memory space" and :meth:`collect` receives all buffers.
    * :meth:`process_lanes` is every worker's shard of a fleet window at
      once — one call that returns each worker's own *state* (the
      fast engine's window hook for a kernel that is not
      :attr:`order_free`; an order-free one — histogram, HLL, PageRank
      — runs the window as one :meth:`process_shard`).
    * :meth:`combine_results` folds two states, and :meth:`answer`
      reads a job's answer off its merged state, once, at collect.
      The state is the answer for every kernel but DP, whose state is
      a run of key and partition-id arrays in fold order
      (:mod:`repro.apps.partition`).
    """

    #: Number of PriPEs this spec routes across (set by the architecture
    #: before use; route() must return IDs in [0, pripes)).
    pripes: int = 16

    #: Whether SecPE partials can be folded into PriPE buffers.
    decomposable: bool = True

    #: Whether one key's tuples may be processed by *independent* PE
    #: groups whose results only meet in ``combine_results`` (no merger
    #: in between).  True for per-tuple reductions (histogram add, HLL
    #: max, partition extend, rank-mass add); False when per-key state
    #: must stay together, e.g. heavy-hitter thresholds evaluated on
    #: each group's private sketch.  The fleet balancer then does not
    #: split a window: it goes whole to one worker, ``window_index % K``
    #: (``SkewAwareBalancer.route``).
    splittable: bool = True

    @property
    def order_free(self) -> bool:
        """Whether a job's parts merge freely: ``decomposable`` (parts
        fold arithmetically, not in an order-keeping way as DP's lists
        do) and ``splittable`` (a key's tuples may be processed by
        independent groups that meet only in :meth:`combine_results`).
        True for histogram add, HLL max and PageRank's fixed-point add;
        False for DP and HHD.  Then one :meth:`process_shard` call over
        several groups' tuples gives their combined result, and the
        merged result of a job cannot depend on which worker's session
        holds which part: a one-pass window runs them so."""
        return self.decomposable and self.splittable

    # ------------------------------------------------------------------
    # Routing (PrePE logic)
    # ------------------------------------------------------------------
    @abstractmethod
    def route(self, key: int) -> int:
        """Destination PriPE ID of ``key`` (scalar form)."""

    def route_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`route`; default falls back to the scalar."""
        return np.fromiter(
            (self.route(int(k)) for k in np.asarray(keys, dtype=np.uint64)),
            dtype=np.int64,
            count=len(keys),
        )

    def pripe_of(self, slots: np.ndarray) -> np.ndarray:
        """PriPE of each slot, ``slots % pripes`` as int64, by mask when
        ``pripes`` is a power of two (Listing 2's ``dst = key & 0xf``);
        ``uint64`` slots come back as an exact int64 view."""
        mask = self.pripes - 1
        owner = slots % self.pripes if self.pripes & mask else slots & mask
        return owner.view(np.int64)

    def prepare_value(self, key: int, value: int) -> int:
        """PrePE value transformation (identity by default).

        PageRank uses this hook: the PrePE turns an edge into the
        fixed-point contribution ``rank[src] / degree[src]``.
        """
        return value

    def prepare_value_array(self, keys: np.ndarray,
                            values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`prepare_value` for the fast-path executor.

        The default recognises an un-overridden scalar hook (identity)
        and skips the per-tuple loop entirely; kernels that do override
        :meth:`prepare_value` either get the loop fallback or override
        this too (PageRank: one fancy-index gather).
        """
        values = np.asarray(values, dtype=np.int64)
        if type(self).prepare_value is KernelSpec.prepare_value:
            return values
        return np.fromiter(
            (self.prepare_value(int(k), int(v))
             for k, v in zip(np.asarray(keys).tolist(), values.tolist())),
            dtype=np.int64,
            count=len(values),
        )

    # ------------------------------------------------------------------
    # Processing (PriPE / SecPE logic)
    # ------------------------------------------------------------------
    @abstractmethod
    def make_buffer(self) -> Any:
        """A fresh private buffer for one PE (zero-initialised)."""

    @abstractmethod
    def process(self, buffer: Any, key: int, value: int) -> None:
        """Apply one routed tuple to ``buffer`` (takes II cycles on-chip)."""

    def process_shard(self, keys: np.ndarray,
                      values: np.ndarray) -> Tuple[np.ndarray, Any]:
        """Route one shard and apply it to a **fresh** PE array.

        Returns ``(destinations, result)``: ``destinations[i]`` is the
        PriPE that owns tuple ``i`` (an int64 array equal to
        :meth:`route_array` of ``keys``) and ``result`` is exactly what
        :meth:`collect` returns after every tuple has been through
        :meth:`prepare_value` and :meth:`process` into its PE's fresh
        :meth:`make_buffer`, stream order kept within each PE.  The
        fast-path executor (:mod:`repro.core.fastpath`) makes this one
        call per (non-empty) shard and models cycles from
        ``np.bincount(destinations)``.

        Kernels opt in by overriding with one NumPy pass that computes
        the shard's hash once for routing and reducing alike and
        returns the collected result directly (a full-width bincount
        *is* the de-interleaved histogram); this default is the exact
        per-tuple loop, so the fast path is always available.

        Two points the process backend depends on.  The inputs may be
        read-only views (the shm transport's are): never write to them.
        And ``result`` must own its memory: the shm child drops its
        slab views and recycles the slab right after the call, so a
        result aliasing ``keys`` or ``values`` would be overwritten by
        the next shard.
        """
        destinations = np.asarray(self.route_array(keys), dtype=np.int64)
        prepared = self.prepare_value_array(keys, values)
        buffers = [self.make_buffer() for _ in range(self.pripes)]
        for pe, key, value in zip(destinations.tolist(),
                                  np.asarray(keys).tolist(),
                                  prepared.tolist()):
            self.process(buffers[pe], key, value)
        return destinations, self.collect(buffers)

    def process_lanes(self, keys: np.ndarray, values: np.ndarray,
                      lanes) -> Tuple[np.ndarray, List[Any]]:
        """Every worker's shard of one fleet window from one call.

        ``lanes`` is the window's :class:`~repro.service.balancer.Lanes`:
        a lane is a worker, whose shard is its lane's tuples in stream
        order (``lanes.positions()`` lists them, ``lanes.cells(0, 1)``
        is each tuple's lane).
        Returns ``(destinations, states)``: ``destinations`` as
        :meth:`process_shard` gives it for the whole window, and
        ``states[w]``, for each worker ``w`` that takes tuples, the
        state of ``w``'s shard on its own, whose :meth:`answer` is what
        :meth:`process_shard` returns for that shard
        (``lanes.route.lane_count`` entries in all).  A state owns its
        memory, by :meth:`process_shard`'s rule.

        A fleet on the fast engine runs every window through this hook
        (:func:`~repro.core.fastpath.run_lanes`), unless the kernel is
        :attr:`order_free`: then the call is one :meth:`process_shard`
        over the window.  This default gathers each worker's shard and
        calls :meth:`process_shard` on it, which is exact for a kernel
        whose answer is its state (HHD, whose window is one lane); a
        kernel overrides it with one pass over the window (DP's runs).
        """
        destinations = np.empty(len(keys), dtype=np.int64)
        results: List[Any] = [None] * lanes.route.lane_count
        for worker, chosen in lanes.positions().items():
            destinations[chosen], results[worker] = self.process_shard(
                keys[chosen], values[chosen])
        return destinations, results

    # ------------------------------------------------------------------
    # Merging (merger logic)
    # ------------------------------------------------------------------
    def merge_into(self, primary: Any, secondary: Any) -> None:
        """Fold a SecPE partial buffer into the owning PriPE's buffer.

        Decomposable applications must override (histogram: elementwise
        add; HLL: elementwise max; ...).  The default raises so forgetting
        to override is loud.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is marked decomposable but does not "
            "implement merge_into"
        )

    def collect(self, pripe_buffers: List[Any]) -> Any:
        """Combine the merged PriPE buffers into the application result."""
        return pripe_buffers

    def combine_results(self, first: Any, second: Any) -> Any:
        """Fold two states (streaming sessions).

        Used by :class:`repro.runtime.session.StreamingSession` to keep
        a running state across stream segments.  Applications override
        with their reduction (histograms add, HLL registers max-fold,
        DP's runs append).  An answer whose kernel's state is not its
        answer folds here too (DP's partition lists extend): a session
        that runs each segment through the architecture folds answers.

        ``first`` is the caller's running state and is consumed: an
        override may fold into it in place and return it, so the caller
        keeps only the return value.  ``second`` is not modified, and
        the return value is not ``second`` itself, but it may share
        ``second``'s arrays: a state's arrays are never written after
        they are made.  Every caller folds state it owns:
        ``WorkerPool.collect`` pops and discards the partials, the
        process backend's snapshots arrive pickled, and nothing keeps a
        segment's ``outcome.result``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a streaming "
            "result combiner"
        )

    def answer(self, state: Any) -> Any:
        """The job's answer from its merged state, read once, at
        collect (the state itself by default: for histogram, HLL, heavy
        hitters and PageRank the state is the answer)."""
        return state

    # ------------------------------------------------------------------
    # Golden reference
    # ------------------------------------------------------------------
    def golden(self, keys: np.ndarray, values: np.ndarray) -> Any:
        """Pure-software reference result for correctness checks.

        Default: run the same route/process/merge pipeline sequentially.
        Applications may override with an independent implementation
        (preferred — it makes the equivalence test meaningful).
        """
        buffers: Dict[int, Any] = {
            pe: self.make_buffer() for pe in range(self.pripes)
        }
        for key, value in zip(keys.tolist(), values.tolist()):
            pe = self.route(int(key))
            self.process(buffers[pe], int(key), int(value))
        return self.collect([buffers[pe] for pe in range(self.pripes)])
