"""The runtime profiler (§IV-C3, Fig. 5).

Two responsibilities:

1. **SecPE scheduling plan generation** — during a profiling window of
   ``profiling_cycles`` cycles, N independent ``hist`` instances count the
   PriPE IDs arriving from the N mappers.  The partial histograms are then
   merged, and SecPEs are assigned greedily: "assigns a SecPE to the PriPE
   whose workload is maximal and recalculates the workload distribution
   with assuming the original workload is evenly shared with the attached
   SecPEs", repeated until all X SecPEs are scheduled.  Plan pairs are
   emitted serially (one per cycle) to the mappers and the merger.

2. **Workload distribution monitoring** — the profiler counts processed
   tuples against a local clock tick; when windowed throughput drops below
   a predefined threshold of the post-plan peak, the distribution has
   changed: it informs the mappers (detach), the merger and the host, and
   exits itself.  The host re-enqueues it (and the SecPEs), restarting the
   profile-plan-monitor cycle.  A threshold of zero disables rescheduling
   (used when distributions change faster than kernels can be
   re-enqueued — the Fig. 9 tail).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapper import DETACH
from repro.sim.channel import Channel
from repro.sim.module import Module

RESCHEDULE = ("reschedule",)
"""Control message from the profiler to the host controller."""


@dataclass
class SchedulingPlan:
    """A complete SecPE scheduling plan.

    Attributes
    ----------
    pairs:
        ``(secpe_id, pripe_id)`` assignments, one per SecPE, in emission
        order ("the final scheduling plan of X SecPEs is recorded through
        an array with X entries").
    workloads:
        The merged histogram the plan was derived from (for diagnostics).
    """

    pairs: List[Tuple[int, int]]
    workloads: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def pripe_of(self, secpe_id: int) -> Optional[int]:
        """The PriPE a SecPE serves, or None if unassigned."""
        for s, p in self.pairs:
            if s == secpe_id:
                return p
        return None

    def split_loads(self, loads: Sequence[float],
                    designated: int) -> np.ndarray:
        """Each of ``designated`` PEs' part of per-PriPE ``loads``.

        A PriPE's load divides evenly over itself and its attached
        SecPEs (the mappers' round-robin): PriPEs first, each SecPE at
        its ID, unassigned SecPEs at zero.
        """
        loads = np.asarray(loads, dtype=np.float64)
        attached = np.zeros(len(loads), dtype=np.int64)
        for _, pripe in self.pairs:
            attached[pripe] += 1
        split = np.zeros(designated, dtype=np.float64)
        split[: len(loads)] = loads / (1 + attached)
        for secpe, pripe in self.pairs:
            split[secpe] = loads[pripe] / (1 + attached[pripe])
        return split


def greedy_secpe_plan(
    workloads: Sequence[float], secpes: int, pripes: Optional[int] = None
) -> SchedulingPlan:
    """The paper's greedy plan generator (Fig. 5).

    Repeatedly assigns the next SecPE (IDs M, M+1, ...) to the PriPE whose
    *effective* workload — original workload divided by (1 + attached
    SecPEs) — is maximal.

    Parameters
    ----------
    workloads:
        Merged per-PriPE tuple counts from the profiling window.
    secpes:
        Number of SecPEs to schedule (X).
    pripes:
        M; defaults to ``len(workloads)``.
    """
    base = np.asarray(workloads, dtype=np.float64)
    m = len(base) if pripes is None else pripes
    if len(base) != m:
        raise ValueError("workloads length must equal the PriPE count")
    if secpes < 0:
        raise ValueError("secpes must be non-negative")
    # Python floats, not 1-32-element arrays: the same IEEE divisions,
    # and ``index(max(...))`` is np.argmax's first-maximum pick.  A NaN
    # workload is np.argmax's pick on every round, as there.
    loads = base.tolist()
    effective = list(loads)
    sharers = [1] * m  # each PriPE and its attached SecPEs
    pairs: List[Tuple[int, int]] = []
    nans = [pripe for pripe, load in enumerate(loads) if load != load]
    for secpe in range(m, m + secpes):
        target = nans[0] if nans else effective.index(max(effective))
        pairs.append((secpe, target))
        sharers[target] += 1
        effective[target] = loads[target] / sharers[target]
    return SchedulingPlan(pairs=pairs, workloads=base)


class RuntimeProfiler(Module):
    """The profiler kernel: histogram, plan emission, throughput monitor.

    Parameters
    ----------
    name:
        Module name.
    pripes / secpes:
        Architecture shape (M, X).
    stats_in:
        N statistics channels (one per mapper) carrying original PriPE IDs.
    plan_outs:
        N plan channels (one per mapper).
    merger_plan_out:
        Plan channel to the merger.
    host_out:
        Control channel to the host controller (reschedule requests).
    profiling_cycles:
        Length of the counting window (256 in Fig. 5's example).
    monitor_window:
        Clock ticks per throughput sample.
    reschedule_threshold:
        Fraction of post-plan peak throughput that triggers rescheduling;
        0 disables monitoring.
    """

    PHASE_PROFILING = "profiling"
    PHASE_EMITTING = "emitting"
    PHASE_MONITORING = "monitoring"

    def __init__(
        self,
        name: str,
        pripes: int,
        secpes: int,
        stats_in: Sequence[Channel],
        plan_outs: Sequence[Channel],
        merger_plan_out: Channel,
        host_out: Channel,
        profiling_cycles: int = 256,
        monitor_window: int = 1024,
        reschedule_threshold: float = 0.5,
    ) -> None:
        super().__init__(name)
        if len(stats_in) != len(plan_outs):
            raise ValueError("one plan channel per statistics channel")
        self._pripes = pripes
        self._secpes = secpes
        self._stats_in = list(stats_in)
        self._plan_outs = list(plan_outs)
        self._merger_out = merger_plan_out
        self._host_out = host_out
        self._profiling_cycles = profiling_cycles
        self._monitor_window = monitor_window
        self._threshold = reschedule_threshold
        self.restart()
        # Cumulative counters across restarts.
        self.plans_generated = 0
        self.reschedules_triggered = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Reset to the start of a fresh profiling window.

        Called by the host controller when the profiler kernel is
        re-enqueued after a rescheduling event.
        """
        self._phase = self.PHASE_PROFILING
        self._window_left = self._profiling_cycles
        # N independent hist instances (one per mapper channel).
        self._hists = [
            np.zeros(self._pripes, dtype=np.int64) for _ in self._stats_in
        ]
        self._pending_pairs: List[Tuple[int, int]] = []
        self._tick_counter = 0
        self._tuples_seen = 0
        self._window_start_tuples = 0
        self._peak_throughput = 0.0
        self.current_plan: Optional[SchedulingPlan] = None
        self._done = False

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if self._phase == self.PHASE_PROFILING:
            self._tick_profiling()
        elif self._phase == self.PHASE_EMITTING:
            self._tick_emitting()
        else:
            self._tick_monitoring()
        if all(ch.exhausted for ch in self._stats_in):
            # Pipeline drained: nothing further to profile or monitor.
            self.finish()

    def _drain_stats(self) -> int:
        """Read at most one PriPE ID per mapper channel (one hist update
        per instance per cycle, like the hardware)."""
        seen = 0
        for hist, channel in zip(self._hists, self._stats_in):
            pripe = channel.try_read()
            if pripe is not None:
                hist[pripe] += 1
                seen += 1
        self._tuples_seen += seen
        return seen

    def _tick_profiling(self) -> None:
        self._drain_stats()
        self._window_left -= 1
        self.note_busy()
        if self._window_left > 0:
            return
        merged = np.sum(self._hists, axis=0)
        plan = greedy_secpe_plan(merged, self._secpes, self._pripes)
        self.current_plan = plan
        self.plans_generated += 1
        self._pending_pairs = list(plan.pairs)
        self._merger_out.write(plan)
        self._phase = self.PHASE_EMITTING

    def _tick_emitting(self) -> None:
        # Serial emission: one pair per cycle to every mapper ("not on the
        # critical path ... serially executed to reduce resource
        # consumption").
        if self._pending_pairs:
            pair = self._pending_pairs.pop(0)
            for out in self._plan_outs:
                out.write(pair)
            self.note_busy()
            return
        self._phase = self.PHASE_MONITORING
        self._tick_counter = 0
        self._window_start_tuples = self._tuples_seen
        self._peak_throughput = 0.0
        self.note_busy()

    def _tick_monitoring(self) -> None:
        self._drain_stats()
        self._tick_counter += 1
        self.note_busy()
        if self._threshold <= 0.0:
            return  # monitoring disabled; SecPEs stay as planned
        if self._tick_counter < self._monitor_window:
            return
        processed = self._tuples_seen - self._window_start_tuples
        throughput = processed / self._tick_counter
        self._tick_counter = 0
        self._window_start_tuples = self._tuples_seen
        if throughput > self._peak_throughput:
            self._peak_throughput = throughput
            return
        if throughput < self._threshold * self._peak_throughput:
            self._trigger_reschedule()

    def _trigger_reschedule(self) -> None:
        """Distribution changed: detach mappers, inform host, exit."""
        for out in self._plan_outs:
            out.write(DETACH)
        self._merger_out.write(DETACH)
        self._host_out.write(RESCHEDULE)
        self.reschedules_triggered += 1
        self.finish()
