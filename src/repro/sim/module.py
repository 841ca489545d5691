"""Base class for simulation modules (the paper's kernels).

Every box in the paper's Fig. 3 — memory access engines, PrePEs, the data
routing logic, mappers, the runtime profiler, PriPEs, SecPEs and the
merger — subclasses :class:`Module`.  A module is ticked once per simulated
cycle and may only exchange data with other modules through
:class:`~repro.sim.channel.Channel` objects, mirroring the OpenCL
autorun-kernel programming model the paper uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.channel import Channel
    from repro.sim.engine import Simulator


class Module:
    """A concurrently executing kernel in the cycle-driven simulation.

    Subclasses implement :meth:`tick`, which is invoked exactly once per
    cycle while the module is live.  The base class tracks busy/stall
    accounting used by the utilisation reports.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.idle_cycles = 0
        self._done = False
        # The registering simulator's list of idle_until requests
        # (Simulator.add_module) — the list, not the simulator, so no
        # reference cycle keeps a finished simulation alive; _parked_at
        # is the cycle of the request while the module waits for a commit.
        self._parking: Optional[List[Tuple["Module", "Channel"]]] = None
        self._parked_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Advance the module by one cycle.

        Subclasses must override.  Implementations should call one of
        :meth:`note_busy`, :meth:`note_stall`, :meth:`note_idle` or
        :meth:`idle_until` so the utilisation statistics stay meaningful.
        """
        raise NotImplementedError

    def finish(self) -> None:
        """Mark the module as finished; the simulator stops ticking it."""
        self._done = True

    @property
    def done(self) -> bool:
        """True once the module declared itself finished."""
        return self._done

    def attach(self, simulator: "Simulator") -> None:
        """Hook invoked when the module is registered with a simulator.

        The default implementation does nothing; modules that need to
        enqueue/dequeue other modules at run time (the runtime profiler
        re-enqueueing SecPEs) keep a reference to the simulator here.
        """

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def note_busy(self) -> None:
        """Record that this cycle performed useful work."""
        self.busy_cycles += 1

    def note_stall(self) -> None:
        """Record that this cycle was lost to backpressure."""
        self.stall_cycles += 1

    def note_idle(self) -> None:
        """Record that this cycle had no input available."""
        self.idle_cycles += 1

    def idle_until(self, channel: "Channel") -> None:
        """Record an idle cycle and sleep until ``channel`` next commits.

        Counts the cycle exactly as :meth:`note_idle` does.  When the
        module is registered with a simulator (and ``channel`` with the
        same one), the simulator also stops ticking the module until
        ``channel``'s next commit, then credits it one idle cycle per
        skipped tick and ticks it again from the following cycle.

        Contract: call it only when this tick did nothing but idle, and
        when the next tick's outcome depends only on ``channel``'s
        committed state — a tick that would also poll another channel,
        count down a timer or observe another module must call
        :meth:`note_idle` instead, or it sleeps through its own wake-up.
        """
        self.idle_cycles += 1
        if self._parking is not None:
            self._parking.append((self, channel))

    @property
    def utilization(self) -> float:
        """Fraction of observed cycles spent doing useful work."""
        total = self.busy_cycles + self.stall_cycles + self.idle_cycles
        return self.busy_cycles / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r})"
