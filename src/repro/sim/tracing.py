"""Lightweight tracers for channel occupancy and windowed throughput.

These are the instrumentation used by the validation suite to compare the
cycle-level simulator against the epoch-level analytic model, and by the
examples to visualise where backpressure builds up under skew.

Both tracers export into the :mod:`repro.obs` trace-event schema
(``sim.channel`` / ``sim.throughput`` events, simulated cycle as the
deterministic clock), so a simulator capture and a service capture land
in the same JSONL format and the same analysis tooling (``repro
trace``, :func:`repro.obs.read_jsonl`) reads either.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sim.channel import Channel


class ChannelOccupancyTrace:
    """Samples committed occupancy of a set of channels every N cycles."""

    def __init__(self, channels: Sequence[Channel], every: int = 64) -> None:
        if every <= 0:
            raise ValueError("sampling period must be positive")
        self._channels = list(channels)
        self.every = every
        self.samples: Dict[str, List[int]] = {c.name: [] for c in self._channels}
        self.cycles: List[int] = []

    def sample(self, cycle: int) -> None:
        """Record occupancy if ``cycle`` falls on the sampling grid."""
        if cycle % self.every:
            return
        self.cycles.append(cycle)
        for channel in self._channels:
            self.samples[channel.name].append(channel.occupancy)

    def max_occupancy(self, name: str) -> int:
        """Largest sampled occupancy of channel ``name``."""
        values = self.samples[name]
        return max(values) if values else 0

    def to_events(self):
        """The trace as :class:`~repro.obs.events.TraceEvent` objects.

        One ``sim.channel`` event per sampled cycle, carrying every
        channel's occupancy; the simulated cycle is the event clock.
        """
        from repro.obs import events as trace_events

        out = []
        for index, cycle in enumerate(self.cycles):
            occupancy = {name: values[index]
                         for name, values in self.samples.items()}
            out.append(trace_events.TraceEvent(
                kind=trace_events.SIM_CHANNEL, clock=cycle, wall=0.0,
                data={"occupancy": occupancy}))
        return out

    def export_jsonl(self, path) -> int:
        """Write the trace as obs-schema JSONL; returns events written."""
        from repro.obs import write_jsonl

        return write_jsonl(self.to_events(), path)


class ThroughputTrace:
    """Tracks items-completed over time and reports windowed throughput.

    This mirrors the runtime profiler's *workload distribution monitoring*
    (§IV-C3): the profiler "maintains a local counter as a clock tick" and
    computes throughput as the incremental number of processed tuples in a
    fixed number of ticks.
    """

    def __init__(self, window: int = 1024) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._count = 0
        self._last_count = 0
        self._last_cycle = 0
        self.history: List[float] = []
        #: Cycle at which each ``history`` entry's window closed — the
        #: clock stamps of the exported ``sim.throughput`` events.
        self.cycles: List[int] = []

    def record(self, completed: int) -> None:
        """Add ``completed`` items processed this cycle."""
        self._count += completed

    @property
    def total(self) -> int:
        """Total items recorded so far."""
        return self._count

    def on_cycle(self, cycle: int) -> None:
        """Close a window if ``cycle`` crosses the window boundary."""
        if cycle - self._last_cycle >= self.window:
            delta = self._count - self._last_count
            span = cycle - self._last_cycle
            self.history.append(delta / span)
            self.cycles.append(cycle)
            self._last_count = self._count
            self._last_cycle = cycle

    def latest(self) -> float:
        """Most recent windowed throughput (items per cycle)."""
        return self.history[-1] if self.history else 0.0

    def to_events(self):
        """The trace as ``sim.throughput`` :class:`TraceEvent` objects."""
        from repro.obs import events as trace_events

        return [trace_events.TraceEvent(
            kind=trace_events.SIM_THROUGHPUT, clock=cycle, wall=0.0,
            data={"tuples_per_cycle": rate, "window": self.window})
            for cycle, rate in zip(self.cycles, self.history)]

    def export_jsonl(self, path) -> int:
        """Write the trace as obs-schema JSONL; returns events written."""
        from repro.obs import write_jsonl

        return write_jsonl(self.to_events(), path)
