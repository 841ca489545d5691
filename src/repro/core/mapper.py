"""Mappers — executing the SecPE scheduling plan (§IV-C2, Fig. 4).

Each of the N mappers redirects tuples of overloaded PriPEs to the SecPEs
assigned to them.  The mechanism is exactly the paper's:

* a two-dimensional **mapping table** with M rows and X + 1 columns —
  room for the PriPE's own ID plus all schedulable SecPE IDs;
* a **counter array** with M entries, initialised to one, giving the
  number of valid entries from the left of each row;
* plan pairs ``SecPE ID -> PriPE ID`` are applied **one per cycle** "for
  better timing": the SecPE ID is written at the row position given by
  the counter, and the counter increments;
* tuples are redirected by looking up the row of their destination PriPE
  **round-robin**, "with the counter indicating the boundary" — e.g.
  after the Fig. 4 plan, PriPE 0's tuples alternate 0, 6, 0, 6, ... and
  PriPE 2's rotate 2, 4, 5, 2, 4, 5, ...

Mappers also feed the runtime profiler: each routed tuple's *original*
PriPE ID is reported on a statistics channel (the profiler's N ``hist``
instances count these), and the same stream doubles as the processed-
tuple count for throughput monitoring.  Statistics writes are lossy
(dropped when the channel is full) — sampling noise is acceptable to the
profiler and this keeps the statistics path off the critical pipeline.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.channel import Channel
from repro.sim.module import Module

DETACH = ("detach",)
"""Control message: stop routing to SecPEs (rescheduling in progress)."""


class MappingState:
    """The mapping table + counter array + round-robin pointers.

    Factored out of the module so the property-based tests (and the
    vectorised performance model) can drive the exact same redirect logic
    without a simulator.
    """

    def __init__(self, pripes: int, secpes: int) -> None:
        if pripes <= 0:
            raise ValueError("pripes must be positive")
        if secpes < 0:
            raise ValueError("secpes must be non-negative")
        self.pripes = pripes
        self.secpes = secpes
        # Row i initially holds [i, i, ..., i]; only counter[i] entries
        # (from the left) are ever read, so the fill value is arbitrary —
        # the paper initialises with the PriPE ID (Fig. 4a).
        self.table: List[List[int]] = [
            [pripe] * (secpes + 1) for pripe in range(pripes)
        ]
        self.counter: List[int] = [1] * pripes
        self._rr: List[int] = [0] * pripes

    def apply_pair(self, secpe_id: int, pripe_id: int) -> None:
        """Write one plan pair into the table (one cycle in hardware)."""
        if not 0 <= pripe_id < self.pripes:
            raise ValueError(f"pripe_id {pripe_id} out of range")
        if not self.pripes <= secpe_id < self.pripes + self.secpes:
            raise ValueError(
                f"secpe_id {secpe_id} outside "
                f"[{self.pripes}, {self.pripes + self.secpes})"
            )
        row = self.table[pripe_id]
        count = self.counter[pripe_id]
        if count > self.secpes:
            raise ValueError(
                f"row {pripe_id} already holds {count} entries; cannot "
                "attach another SecPE"
            )
        row[count] = secpe_id
        self.counter[pripe_id] = count + 1

    def redirect(self, pripe_id: int) -> int:
        """Designated PE for the next tuple destined to ``pripe_id``.

        Round-robin over the row's valid entries, starting at the PriPE
        itself (Fig. 4c's mapping sequences).
        """
        count = self.counter[pripe_id]
        position = self._rr[pripe_id] % count
        self._rr[pripe_id] += 1
        return self.table[pripe_id][position]

    def detach(self) -> None:
        """Stop using SecPEs: counters return to one, pointers reset.

        Table contents are left in place (they are overwritten by the
        next plan), exactly like hardware would.
        """
        self.counter = [1] * self.pripes
        self._rr = [0] * self.pripes


class Mapper(Module):
    """One mapper lane: plan-driven redirect of routed tuples.

    Parameters
    ----------
    name:
        Module name.
    pripes / secpes:
        Architecture shape (M, X).
    routed_in:
        ``(dst_pripe, key, value)`` triples from this lane's PrePE.
    designated_out:
        ``(designated_pe, key, value)`` triples to the combiner.
    plan_in:
        Plan-pair / control channel from the runtime profiler.
    stats_out:
        Lossy statistics channel to the profiler (original PriPE IDs).
    """

    def __init__(
        self,
        name: str,
        pripes: int,
        secpes: int,
        routed_in: Channel,
        designated_out: Channel,
        plan_in: Channel,
        stats_out: Optional[Channel] = None,
    ) -> None:
        super().__init__(name)
        self.state = MappingState(pripes, secpes)
        self._in = routed_in
        self._out = designated_out
        self._plan = plan_in
        self._stats = stats_out
        self.tuples_redirected = 0
        self.plan_pairs_applied = 0
        self.detaches_seen = 0

    def tick(self, cycle: int) -> None:
        # Apply at most one plan pair per cycle (paper: "update only one
        # pair to the mapping table per cycle for better timing").
        message = self._plan.try_read()
        if message is not None:
            if message == DETACH:
                self.state.detach()
                self.detaches_seen += 1
            else:
                secpe_id, pripe_id = message
                self.state.apply_pair(secpe_id, pripe_id)
                self.plan_pairs_applied += 1

        if not self._in.can_read():
            if self._in.exhausted:
                self._out.close()
                if self._stats is not None and not self._stats.closed:
                    self._stats.close()
                self.finish()
            else:
                self.note_idle()
            return
        if not self._out.can_write():
            self.note_stall()
            return
        dst_pripe, key, value = self._in.read()
        designated = self.state.redirect(dst_pripe)
        self._out.write((designated, key, value))
        self.tuples_redirected += 1
        if self._stats is not None and self._stats.can_write():
            self._stats.write(dst_pripe)  # lossy by design
        self.note_busy()
