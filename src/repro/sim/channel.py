"""Bounded FIFO channels with HLS-channel semantics.

Intel's OpenCL channels (and Xilinx HLS streams) are bounded FIFOs with
non-blocking *try* semantics at the hardware level: a producer that writes
into a full channel stalls, and a consumer that reads from an empty channel
stalls.  Crucially a value written in cycle *t* can be consumed at the
earliest in cycle *t + 1*.  :class:`Channel` reproduces this with a
two-phase protocol: during a cycle, writes land in a staging buffer;
:meth:`Channel.commit` (called by the simulator between cycles) makes them
visible to readers.  A channel registered with a simulator enlists itself
on the simulator's dirty list at its first write or close of a cycle, so
the simulator commits only the channels that changed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator, List, Optional


class ChannelClosed(RuntimeError):
    """Raised when writing to a channel whose producer side was closed."""


class Channel:
    """A bounded FIFO connecting two simulation modules.

    Parameters
    ----------
    name:
        Human-readable identifier used in traces and error messages.
    capacity:
        Maximum number of elements the FIFO holds.  The paper's designs use
        HLS channels with a configured depth; 512 matches the depth used for
        the datapath channels in [8] which the routing logic is taken from.

    Notes
    -----
    All occupancy accounting counts *committed plus staged* elements, so a
    producer cannot overfill the FIFO by writing many times within one
    cycle.
    """

    def __init__(self, name: str, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError(f"channel {name!r}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Any] = deque()
        self._staged: List[Any] = []
        self._closed = False
        self._close_pending = False
        # The registering simulator's dirty list (Simulator.add_channel).
        self._dirty: Optional[List["Channel"]] = None
        # Statistics.
        self.total_written = 0
        self.total_read = 0
        self.write_stalls = 0
        self.read_stalls = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    # Producer interface
    # ------------------------------------------------------------------
    def can_write(self, count: int = 1) -> bool:
        """Return True if ``count`` more writes fit in this cycle."""
        return len(self._queue) + len(self._staged) + count <= self.capacity

    def write(self, item: Any) -> bool:
        """Stage ``item`` for commit at the end of the cycle.

        Returns ``True`` on success and ``False`` when the FIFO is full
        (the caller is expected to stall and retry next cycle).
        """
        if self._close_pending:  # stays set once committed as _closed
            raise ChannelClosed(f"channel {self.name!r} is closed")
        staged = self._staged
        if len(self._queue) + len(staged) >= self.capacity:
            self.write_stalls += 1
            return False
        if not staged and self._dirty is not None:
            self._dirty.append(self)
        staged.append(item)
        self.total_written += 1
        return True

    def close(self) -> None:
        """Mark the producer side finished.

        The closure is committed together with staged data so consumers
        observe all in-flight elements before seeing the channel as
        exhausted.
        """
        if not (self._close_pending or self._staged) \
                and self._dirty is not None:
            self._dirty.append(self)
        self._close_pending = True

    # ------------------------------------------------------------------
    # Consumer interface
    # ------------------------------------------------------------------
    def can_read(self) -> bool:
        """Return True if a committed element is available this cycle."""
        return bool(self._queue)

    def read(self) -> Any:
        """Pop the oldest committed element.

        Raises
        ------
        IndexError
            If the channel is empty this cycle.  Callers model a stall by
            checking :meth:`can_read` first; :meth:`try_read` wraps both.
        """
        if not self._queue:
            self.read_stalls += 1
            raise IndexError(f"read from empty channel {self.name!r}")
        self.total_read += 1
        return self._queue.popleft()

    def try_read(self) -> Any | None:
        """Pop the oldest committed element, or return None when empty."""
        if not self._queue:
            return None
        self.total_read += 1
        return self._queue.popleft()

    def peek(self) -> Any | None:
        """Return the oldest committed element without consuming it."""
        return self._queue[0] if self._queue else None

    # ------------------------------------------------------------------
    # Simulator interface
    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Make this cycle's staged writes visible to readers."""
        if self._staged:
            self._queue.extend(self._staged)
            self._staged.clear()
        if self._close_pending:
            self._closed = True
        if len(self._queue) > self.peak_occupancy:
            self.peak_occupancy = len(self._queue)

    @property
    def occupancy(self) -> int:
        """Number of committed elements currently in the FIFO."""
        return len(self._queue)

    @property
    def staged_count(self) -> int:
        """Number of elements staged this cycle (not yet visible)."""
        return len(self._staged)

    @property
    def closed(self) -> bool:
        """True once the producer closed the channel and it was committed."""
        return self._closed

    @property
    def exhausted(self) -> bool:
        """True when closed and fully drained — the consumer may exit."""
        return self._closed and not self._queue and not self._staged

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self._closed else "open"
        return (
            f"Channel({self.name!r}, {len(self._queue)}/{self.capacity}, "
            f"{state})"
        )
