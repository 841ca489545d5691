"""Regime model for evolving data skew (Fig. 9).

The experiment: online HISTO (16P+15S), Zipf alpha = 3, tuples arriving
at 100 Gbps line rate, with the dataset generator's seed — and therefore
the overloaded PriPE — changing every *interval*.  Three regimes emerge:

1. **Slow evolution** (interval >> rescheduling cost): the per-interval
   cost of one rescheduling round (detection + drain/merge + OpenCL
   re-enqueue + re-profiling) amortises; throughput satiates the network
   ("the throughput is able to satiate the network bandwidth when the
   time interval is larger than 16 ms").
2. **Thrashing** (interval comparable to or below the rescheduling
   cost): the plan is stale most of the time and SecPEs sit idle while
   kernels are re-enqueued; throughput collapses toward the unaided
   skewed rate ("it drops significantly for intervals between 16 ms and
   64 ns because the overhead of SecPE rescheduling leads SecPEs
   underutilized").
3. **Burst absorption** (interval so small that one distribution's burst
   fits in the channel FIFOs): the hot PE's excess tuples queue in its
   channel and drain while other distributions are in force; the
   time-averaged load is near uniform, the profiler stops rescheduling
   (threshold set to zero "if the time interval ... is smaller than
   kernel dequeueing and enqueueing overhead"), and throughput climbs
   back to line rate ("the internal channels could accommodate
   short-term skew distribution variances").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.config import ArchitectureConfig
from repro.workloads.streams import NetworkModel


@dataclass(frozen=True)
class EvolvingPoint:
    """One x-axis point of Fig. 9."""

    interval_s: float
    throughput_gbps: float
    reschedules: int
    regime: str


@dataclass
class EvolvingSkewModel:
    """Models online processing under an evolving hot-key distribution.

    Parameters
    ----------
    config:
        Architecture configuration (16P+15S in the paper's run).
    frequency_mhz:
        Kernel clock (Table III's 188 MHz for 16P+15S).
    network:
        Line-rate arrival model (100 Gbps, 8-byte tuples).
    hot_share:
        Fraction of each interval's tuples destined to its hottest PriPE
        (~0.83 for Zipf alpha = 3 over a 2^20 universe).
    detection_windows:
        Monitor windows needed to detect a throughput drop.
    burst_safety_factor:
        Headroom factor for burst absorption: a burst is absorbed when
        ``hot_share * interval_tuples <= channel_depth / factor`` (queue
        fluctuations need slack beyond the mean).
    """

    config: ArchitectureConfig
    frequency_mhz: float = 188.0
    network: NetworkModel = field(default_factory=NetworkModel)
    hot_share: float = 0.83
    detection_windows: int = 2
    burst_safety_factor: float = 4.0

    # ------------------------------------------------------------------
    # Component quantities (cycles)
    # ------------------------------------------------------------------
    @property
    def cycles_per_second(self) -> float:
        """Kernel cycles per wall-clock second."""
        return self.frequency_mhz * 1e6

    @property
    def planned_rate(self) -> float:
        """Tuples/cycle with a fresh plan: the hot PriPE's share is split
        across itself and its SecPEs, so the pipeline is bandwidth-bound
        (or bound by the split hot share for small X)."""
        cfg = self.config
        secpes_on_hot = cfg.secpes  # worst-case concentration on one PE
        split = self.hot_share / max(1, 1 + secpes_on_hot)
        per_pe_bound = 1.0 / (cfg.ii_pe * max(split, 1.0 / cfg.pripes / 2))
        return min(float(cfg.lanes), per_pe_bound)

    @property
    def unaided_rate(self) -> float:
        """Tuples/cycle with no SecPE help under full skew."""
        return min(
            float(self.config.lanes),
            1.0 / (self.config.ii_pe * self.hot_share),
        )

    @property
    def stale_plan_rate(self) -> float:
        """Expected rate once rescheduling stops and the last plan ages.

        The hot key moves to a PriPE chosen uniformly at random every
        interval; with the stale plan concentrating all X SecPEs on one
        (now arbitrary) PriPE, the expected rate over many intervals is
        a mix of one lucky hit (hot PE still split) and M-1 misses at the
        unaided rate.  This is why Ditto stays above the no-skew-handling
        baseline even in the stopped regime (Fig. 9).
        """
        cfg = self.config
        hit = min(
            float(cfg.lanes),
            (1 + cfg.secpes) / (cfg.ii_pe * self.hot_share),
        )
        miss = self.unaided_rate
        return (hit + (cfg.pripes - 1) * miss) / cfg.pripes

    @property
    def reschedule_cost_cycles(self) -> float:
        """Cycles from distribution change to a fresh effective plan."""
        return self.config.reschedule_cost_cycles(self.detection_windows)

    def absorption_interval_s(self) -> float:
        """Largest interval whose hot burst the channels absorb."""
        burst_capacity = self.config.channel_depth / self.burst_safety_factor
        tuples = burst_capacity / self.hot_share
        return tuples / self.network.tuples_per_second

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def evaluate(self, interval_s: float) -> EvolvingPoint:
        """Throughput and rescheduling count at one change interval.

        Rescheduling counts are reported per second of stream (the
        paper's right axis is "#hundred times" over the run).
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        line_rate = self.network.tuples_per_second  # tuples/s
        interval_cycles = interval_s * self.cycles_per_second
        interval_tuples = interval_s * line_rate

        if interval_s <= self.absorption_interval_s():
            # Regime 3: bursts fit in the channels; profiler disabled.
            rate = min(float(self.config.lanes),
                       line_rate / self.cycles_per_second)
            gbps = self._gbps(rate)
            return EvolvingPoint(interval_s, gbps, 0, "absorbed")

        cost = self.reschedule_cost_cycles
        if interval_cycles <= cost:
            # Regime 2 (deep): a plan never becomes effective; the system
            # detects this and stops rescheduling (threshold -> 0), so
            # the pipeline runs with the aging last plan.
            gbps = self._gbps(self.stale_plan_rate)
            return EvolvingPoint(interval_s, gbps, 0, "stopped")

        # Regimes 1-2: each interval spends `cost` cycles transitioning
        # at the unaided rate and the rest at the planned rate.
        good_cycles = interval_cycles - cost
        tuples_done = (
            good_cycles * min(self.planned_rate,
                              line_rate / self.cycles_per_second)
            + cost * self.unaided_rate
        )
        tuples_done = min(tuples_done, interval_tuples)
        rate = tuples_done / interval_cycles
        reschedules_per_s = int(round(1.0 / interval_s))
        regime = "amortised" if good_cycles > 4 * cost else "thrashing"
        return EvolvingPoint(interval_s, self._gbps(rate),
                             reschedules_per_s, regime)

    def sweep(self, intervals_s: List[float]) -> List[EvolvingPoint]:
        """Evaluate a list of change intervals (the Fig. 9 x-axis)."""
        return [self.evaluate(interval) for interval in intervals_s]

    def baseline_gbps(self) -> float:
        """Throughput without skew handling (the 16P baseline line)."""
        return self._gbps(self.unaided_rate)

    def _gbps(self, rate_tuples_per_cycle: float) -> float:
        tuples_per_s = rate_tuples_per_cycle * self.cycles_per_second
        tuples_per_s = min(tuples_per_s, self.network.tuples_per_second)
        return tuples_per_s * self.network.tuple_bytes * 8 / 1e9


def fig9_intervals() -> List[float]:
    """The paper's x-axis: 512 ms ... 1 ms, 512 us ... 1 us, 512 ns ...
    16 ns (note the axis jumps 1 us -> 512 ns, not an exact halving)."""
    ms = [512, 256, 128, 64, 32, 16, 8, 4, 2, 1]
    us = [512, 256, 128, 64, 32, 16, 8, 4, 2, 1]
    ns = [512, 256, 128, 64, 32, 16]
    return (
        [v * 1e-3 for v in ms]
        + [v * 1e-6 for v in us]
        + [v * 1e-9 for v in ns]
    )
