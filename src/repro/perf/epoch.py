"""Epoch-level (windowed) performance model.

Simulates the architecture's control loop — profile, plan, monitor,
reschedule — over a tuple stream at window granularity instead of cycle
granularity.  Within one window the pipeline runs at the steady-state
rate implied by the window's destination shares and the plan in force;
window boundaries re-evaluate the control state.  This captures the
transients the closed-form model misses (profiling warm-up, stale plans
after a distribution change, the host's re-enqueue delay) at a cost of
O(stream / window) instead of O(cycles) work.

Validated against the cycle-level simulator in
:mod:`repro.perf.validate` and ``tests/integration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.core.profiler import SchedulingPlan, greedy_secpe_plan


@dataclass
class EpochResult:
    """Outcome of an epoch-model run.

    Attributes
    ----------
    cycles:
        Modelled execution cycles.
    tuples:
        Stream length.
    plans:
        Scheduling plans generated along the way.
    reschedules:
        Rescheduling rounds (detach -> merge -> re-enqueue -> re-profile).
    window_rates:
        Modelled rate (tuples/cycle) of every processed window.
    """

    cycles: float
    tuples: int
    plans: List[SchedulingPlan] = field(default_factory=list)
    reschedules: int = 0
    window_rates: List[float] = field(default_factory=list)

    @property
    def tuples_per_cycle(self) -> float:
        """Average modelled throughput."""
        return self.tuples / self.cycles if self.cycles else 0.0

    def throughput_mtps(self, frequency_mhz: float) -> float:
        """Throughput in million tuples/s at ``frequency_mhz``."""
        return self.tuples_per_cycle * frequency_mhz


class EpochModel:
    """Windowed model of one implementation processing one stream.

    Parameters
    ----------
    config:
        Architecture configuration (shape + profiler parameters).
    window_tuples:
        Window size for share re-evaluation; 8192 balances fidelity and
        speed (~1 ms of stream at full rate).
    """

    def __init__(self, config: ArchitectureConfig,
                 window_tuples: int = 8192) -> None:
        if window_tuples <= 0:
            raise ValueError("window_tuples must be positive")
        self.config = config
        self.window_tuples = window_tuples

    # ------------------------------------------------------------------
    def run(self, route_ids: np.ndarray) -> EpochResult:
        """Model the full stream of per-tuple destination PriPE IDs.

        The model is a window-granularity queue simulation.  Per window:

        * window tuples are split across the designated PEs according to
          the plan in force (round-robin split of each PriPE's count);
        * each PE holds a backlog bounded by the channel depth; a window
          takes ``max(T / N, II * (backlog + arrivals - depth))`` cycles
          — the memory-bandwidth bound, or however long the most loaded
          PE needs to keep its channel from overflowing (which is when
          the combiner stalls in the real pipeline);
        * remaining backlog carries into the next window, and whatever
          is left at end of stream drains at 1/II per cycle.

        This reproduces the cycle engine's transients: channels filling
        at full bandwidth during the profiling phase, slow drains of a
        hot PE's channel after the plan lands, and noise absorption on
        near-uniform streams.
        """
        cfg = self.config
        route_ids = np.asarray(route_ids, dtype=np.int64)
        total = int(route_ids.size)
        if total == 0:
            raise ValueError("empty stream")

        designated = cfg.designated_pes
        backlog = np.zeros(designated, dtype=np.float64)
        cycles = 0.0
        plans: List[SchedulingPlan] = []
        reschedules = 0
        rates: List[float] = []
        plan: Optional[SchedulingPlan] = None
        unplanned = SchedulingPlan(pairs=[])
        cursor = 0
        # Profiling control: while `profile_left` > 0 the mappers route
        # identity (no SecPEs) and the profiler accumulates counts.
        profile_left = float(cfg.profiling_cycles) if cfg.skew_handling else 0.0
        profile_counts = np.zeros(cfg.pripes, dtype=np.float64)
        peak_rate = 0.0

        while cursor < total:
            # Fine-grained windows while profiling: the handover to the
            # plan happens after `profiling_cycles` cycles, far less than
            # one full window's worth of tuples.
            if profile_left > 0:
                span = min(self.window_tuples, cfg.lanes * 32)
            else:
                span = self.window_tuples
            window = route_ids[cursor: cursor + span]
            counts = np.bincount(window, minlength=cfg.pripes).astype(float)
            cursor += window.size

            active_plan = (plan if profile_left <= 0 and plan is not None
                           else unplanned)
            arrivals = active_plan.split_loads(counts, designated)
            window_cycles = self._advance(backlog, arrivals, window.size)
            cycles += window_cycles
            rate = window.size / max(window_cycles, 1e-9)
            rates.append(rate)

            if profile_left > 0:
                profile_counts += counts
                profile_left -= window_cycles
                if profile_left <= 0:
                    plan = greedy_secpe_plan(profile_counts, cfg.secpes,
                                             cfg.pripes)
                    plans.append(plan)
                    cycles += cfg.secpes      # serial pair emission
                continue

            peak_rate = max(peak_rate, rate)
            if (
                cfg.skew_handling
                and cfg.reschedule_threshold > 0.0
                and rate < cfg.reschedule_threshold * peak_rate
                and cursor < total
            ):
                # Distribution changed: detach, drain + merge SecPEs,
                # host re-enqueue, then a fresh profiling window.
                reschedules += 1
                cycles += cfg.reenqueue_delay_cycles
                profile_left = float(cfg.profiling_cycles)
                profile_counts = np.zeros(cfg.pripes, dtype=np.float64)
                plan = None
                peak_rate = 0.0

        # End-of-stream drain of the largest remaining backlog.
        cycles += float(backlog.max()) * cfg.ii_pe

        return EpochResult(
            cycles=cycles,
            tuples=total,
            plans=plans,
            reschedules=reschedules,
            window_rates=rates,
        )

    def _advance(self, backlog: np.ndarray, arrivals: np.ndarray,
                 tuples: int) -> float:
        """Advance one window; mutates ``backlog``; returns cycles."""
        cfg = self.config
        bandwidth_cycles = tuples / cfg.lanes
        pressure = backlog + arrivals - cfg.channel_depth
        pe_cycles = float(pressure.max()) * cfg.ii_pe
        window_cycles = max(bandwidth_cycles, pe_cycles)
        serviced = np.minimum(backlog + arrivals,
                              window_cycles / cfg.ii_pe)
        backlog += arrivals - serviced
        np.clip(backlog, 0.0, None, out=backlog)
        return window_cycles
