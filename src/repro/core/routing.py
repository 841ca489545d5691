"""The data routing logic: combiner, decoder and filter (§IV-C1).

The design is adopted from Chen et al. [8] and simplified into three
modules:

* The **combiner** "gathers N tuples together with their destination PE
  IDs and duplicates them for M + X datapaths each owned by a destination
  PE".  Duplication is what makes the dispatch non-blocking with respect
  to run-time data dependencies: any subset of a group may belong to any
  PE, so every datapath sees the whole group.
* The **decoder** compares the group's destination IDs against its own PE
  ID, producing the positions and count of matching tuples ("an N bits
  mask code ... a preset table with the mask code as input").
* The **filter** extracts the matching tuples and forwards them to the
  PE's input channel; filters run as independent concurrent kernels so a
  slow PE only backpressures its own datapath FIFO.

Backpressure path: a hot PE drains slowly -> its filter cannot retire
groups -> its group FIFO fills -> the combiner stalls -> the whole
pipeline (and the memory interface) stalls.  This is precisely the
mechanism that collapses throughput to 1/M under extreme skew (Fig. 2b).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Sequence, Tuple

from repro.sim.channel import Channel
from repro.sim.module import Module

RoutedTuple = Tuple[int, int, int]
"""``(designated_pe, key, value)`` as produced by mappers / PrePEs."""


class Combiner(Module):
    """Gathers up to N routed tuples per cycle and broadcasts the group.

    Parameters
    ----------
    name:
        Module name.
    inputs:
        N channels of routed tuples (one per mapper / PrePE lane).
    group_outputs:
        M + X group channels, one per destination datapath.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Channel],
        group_outputs: Sequence[Channel],
    ) -> None:
        super().__init__(name)
        if not inputs:
            raise ValueError("combiner needs at least one input lane")
        if not group_outputs:
            raise ValueError("combiner needs at least one datapath")
        self._inputs = list(inputs)
        self._outputs = list(group_outputs)
        self.groups_issued = 0
        self.tuples_issued = 0

    def tick(self, cycle: int) -> None:
        # The broadcast is all-or-nothing: every datapath receives every
        # group, so a single full group FIFO stalls the combiner.
        if not all(out.can_write() for out in self._outputs):
            self.note_stall()
            return
        group: List[RoutedTuple] = []
        for lane in self._inputs:
            item = lane.try_read()
            if item is not None:
                group.append(item)
        if group:
            group_tuple = tuple(group)
            for out in self._outputs:
                out.write(group_tuple)
            self.groups_issued += 1
            self.tuples_issued += len(group)
            self.note_busy()
            return
        if all(lane.exhausted for lane in self._inputs):
            for out in self._outputs:
                out.close()
            self.finish()
        else:
            self.note_idle()


class FilterDecoder(Module):
    """One datapath's decoder + filter pair.

    Retires one group per cycle when the PE input channel has room for
    all of the group's matching tuples; otherwise it forwards as many as
    fit and holds the remainder (the filter's internal registers), which
    is what eventually backpressures the group FIFO.
    """

    def __init__(
        self,
        name: str,
        pe_id: int,
        group_in: Channel,
        pe_out: Channel,
    ) -> None:
        super().__init__(name)
        self._pe_id = pe_id
        self._group_in = group_in
        self._pe_out = pe_out
        # A deque: the head pop below must stay O(1) even when one hot
        # PE's datapath holds large oversized matches under heavy skew.
        self._pending: Deque[RoutedTuple] = deque()
        self.tuples_forwarded = 0

    @property
    def pe_id(self) -> int:
        """Destination PE this datapath serves."""
        return self._pe_id

    def tick(self, cycle: int) -> None:
        # First drain tuples held over from a previous oversized match.
        while self._pending and self._pe_out.can_write():
            self._pe_out.write(self._pending.popleft())
            self.tuples_forwarded += 1
        if self._pending:
            self.note_stall()
            return
        group = self._group_in.try_read()
        if group is None:
            if self._group_in.exhausted:
                self._pe_out.close()
                self.finish()
            else:
                self.idle_until(self._group_in)
            return
        # The decoder's mask lookup (an N-bit mask indexing a preset
        # position table in hardware) as one pass over the group.
        pe_id = self._pe_id
        out = self._pe_out
        for item in group:
            if item[0] == pe_id:
                if out.can_write():
                    out.write(item)
                    self.tuples_forwarded += 1
                else:
                    self._pending.append(item)
        self.note_busy()
