"""The cycle-driven simulator.

The simulator owns a set of modules and channels.  Each cycle it ticks
every live module once (in registration order — producers are registered
before consumers so a freshly staged value is committed exactly one cycle
before it can be read, matching hardware channel latency) and then commits
the channels written or closed during the cycle; a channel nobody touched
has nothing to commit.  A module is live unless it finished or is parked:
a module whose input is empty calls :meth:`Module.idle_until` and sleeps
until that channel next commits, then is credited the idle cycles it
skipped — a stage fires only when a token is on its input, and every
count comes out as if it had ticked idle each cycle.  Execution ends when
a user-supplied condition holds, when every module reports done, or when
``max_cycles`` elapses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.channel import Channel
from repro.sim.module import Module


@dataclass
class SimulationReport:
    """Summary of a finished simulation run.

    Attributes
    ----------
    cycles:
        Number of cycles simulated.
    completed:
        True when the stop condition (rather than the cycle budget) ended
        the run.
    module_utilization:
        Busy fraction per module name.
    channel_peaks:
        Peak committed occupancy per channel name.
    channel_write_stalls:
        Failed-write count per channel name (backpressure events).
    """

    cycles: int
    completed: bool
    module_utilization: Dict[str, float] = field(default_factory=dict)
    channel_peaks: Dict[str, int] = field(default_factory=dict)
    channel_write_stalls: Dict[str, int] = field(default_factory=dict)

    def throughput(self, items: int) -> float:
        """Items processed per cycle over the whole run."""
        return items / self.cycles if self.cycles else 0.0


class Simulator:
    """Cycle-driven scheduler for modules connected by channels.

    Example
    -------
    >>> sim = Simulator()
    >>> ch = sim.add_channel(Channel("a2b", capacity=4))
    >>> # ... register producer and consumer Modules ...
    >>> report = sim.run(max_cycles=1000)
    """

    def __init__(self) -> None:
        self._modules: List[Module] = []
        self._channels: List[Channel] = []
        # Channels written or closed this cycle, each enlisted by its
        # first write or close (Channel._dirty is this list).
        self._dirty: List[Channel] = []
        # This cycle's Module.idle_until requests (Module._parking is this
        # list), and the modules asleep, by the channel they wait on.
        self._parking: List[Tuple[Module, Channel]] = []
        self._parked: Dict[Channel, List[Module]] = {}
        self.cycle = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_module(self, module: Module) -> Module:
        """Register ``module`` and return it (for fluent wiring)."""
        self._modules.append(module)
        module._parking = self._parking
        module.attach(self)
        return module

    def add_channel(self, channel: Channel) -> Channel:
        """Register ``channel`` and return it (for fluent wiring).

        From then on the channel's writes and closes enlist it for the
        end-of-cycle commit; a channel never registered is committed by
        hand (:meth:`Channel.commit`).
        """
        self._channels.append(channel)
        channel._dirty = self._dirty
        return channel

    @property
    def modules(self) -> List[Module]:
        """Registered modules, in tick order."""
        return list(self._modules)

    @property
    def channels(self) -> List[Channel]:
        """Registered channels."""
        return list(self._channels)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by exactly one cycle.

        Ticks every live (neither finished nor parked) module in
        registration order, parks the modules that called
        :meth:`Module.idle_until`, then commits only the channels written
        or closed this cycle and wakes the modules parked on them.
        """
        cycle = self.cycle
        for module in self._modules:
            if not module._done and module._parked_at is None:
                module.tick(cycle)
        parked = self._parked
        if self._parking:
            for module, channel in self._parking:
                # A channel registered elsewhere (or nowhere) never
                # enlists for this simulator's commit: leave the module
                # live, polling it as note_idle would.
                if channel._dirty is self._dirty:
                    module._parked_at = cycle
                    parked.setdefault(channel, []).append(module)
            self._parking.clear()
        for channel in self._dirty:
            channel.commit()
            if parked and channel in parked:
                # Woken modules skipped the ticks after the parking one
                # up to this cycle; their next tick is the next cycle's.
                for module in parked.pop(channel):
                    module.idle_cycles += cycle - module._parked_at
                    module._parked_at = None
        self._dirty.clear()
        self.cycle = cycle + 1

    def run(
        self,
        max_cycles: int = 1_000_000,
        until: Optional[Callable[["Simulator"], bool]] = None,
        progress: Optional[Callable[[int], None]] = None,
        progress_interval: int = 65536,
    ) -> SimulationReport:
        """Run until ``until`` holds, all modules finish, or the budget ends.

        Parameters
        ----------
        max_cycles:
            Hard cycle budget; the run is marked incomplete if it is hit.
        until:
            Optional stop predicate evaluated after every cycle.
        progress:
            Optional callback invoked with the cycle count every
            ``progress_interval`` cycles (for long interactive runs).
        """
        completed = False
        for _ in range(max_cycles):
            self.step()
            if progress is not None and self.cycle % progress_interval == 0:
                progress(self.cycle)
            if until is not None and until(self):
                completed = True
                break
            if all(m.done for m in self._modules):
                completed = True
                break
        return self._report(completed)

    def _report(self, completed: bool) -> SimulationReport:
        # Credit the idle cycles modules still parked have skipped so far;
        # they stay parked, counting on from here if the run resumes.
        last = self.cycle - 1
        for modules in self._parked.values():
            for module in modules:
                module.idle_cycles += last - module._parked_at
                module._parked_at = last
        return SimulationReport(
            cycles=self.cycle,
            completed=completed,
            module_utilization={m.name: m.utilization for m in self._modules},
            channel_peaks={c.name: c.peak_occupancy for c in self._channels},
            channel_write_stalls={
                c.name: c.write_stalls for c in self._channels
            },
        )
