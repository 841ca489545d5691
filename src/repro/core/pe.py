"""Primary and secondary processing elements (PriPE / SecPE).

"The M PriPEs and the X SecPEs are all accompanied with buffers and have
the same logic for tuple processing.  They have been assigned unique IDs:
0 to M-1 for PriPEs and M to M+X-1 for SecPEs.  A PriPE processes a
partial range of the input tuples, while a SecPE processes the same range
of the tuples with the PriPE it is scheduled to." (§IV-A)

The initiation interval models the paper's buffer-port bound: with a
single-ported BRAM buffer, a read-modify-write update costs two cycles,
so one PE sustains half a tuple per cycle — the number that makes 16 PEs
necessary to absorb 8 tuples per cycle (§II), and the number that skew
handling effectively multiplies by adding buffer ports via SecPEs
(§III, Solution 1).
"""

from __future__ import annotations

from typing import Any

from repro.core.kernel import KernelSpec
from repro.sim.channel import Channel
from repro.sim.module import Module


class ProcessingElement(Module):
    """One designated PE (PriPE or SecPE) with a private buffer.

    Parameters
    ----------
    name:
        Module name.
    pe_id:
        Unique ID: ``0..M-1`` for PriPEs, ``M..M+X-1`` for SecPEs.
    kernel:
        Application logic (``process`` + ``make_buffer``).
    tuple_in:
        Channel of ``(designated_pe, key, value)`` from this PE's filter.
    ii:
        Initiation interval in cycles (2 = single-ported buffer).
    is_secondary:
        True for SecPEs — their buffers are reset after every merge.
    """

    def __init__(
        self,
        name: str,
        pe_id: int,
        kernel: KernelSpec,
        tuple_in: Channel,
        ii: int = 2,
        is_secondary: bool = False,
    ) -> None:
        super().__init__(name)
        if ii <= 0:
            raise ValueError("initiation interval must be positive")
        self.pe_id = pe_id
        self.is_secondary = is_secondary
        self._kernel = kernel
        self._in = tuple_in
        self._ii = ii
        self._cooldown = 0
        self.buffer: Any = kernel.make_buffer()
        self.tuples_processed = 0
        self.tuples_since_merge = 0

    def reset_buffer(self) -> None:
        """Fresh private buffer (SecPE re-enqueue after a merge)."""
        self.buffer = self._kernel.make_buffer()
        self.tuples_since_merge = 0

    @property
    def input_channel(self) -> Channel:
        """The PE's input channel (the merger checks it is drained)."""
        return self._in

    def tick(self, cycle: int) -> None:
        if self._cooldown > 0:
            self._cooldown -= 1
            self.note_busy()
            return
        item = self._in.try_read()
        if item is None:
            if self._in.exhausted:
                self.finish()
            else:
                self.idle_until(self._in)
            return
        _, key, value = item
        self._kernel.process(self.buffer, key, value)
        self.tuples_processed += 1
        self.tuples_since_merge += 1
        self._cooldown = self._ii - 1
        self.note_busy()
