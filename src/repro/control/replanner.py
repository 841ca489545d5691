"""Cost-aware rescheduling with hysteresis (the Fig. 9 regimes, fleet-level).

:mod:`repro.perf.evolving` models one pipeline under an evolving hot-key
distribution: rescheduling amortises when the drift interval dwarfs the
rescheduling cost, thrashes when the two are comparable (the plan is
stale most of the time while kernels re-enqueue), and should be disabled
outright when the interval is so small that channel FIFOs absorb each
burst.  The replanner applies the same arithmetic to the serving fleet:
given the estimated interval between drift events, it decides whether a
drift event is worth reacting to at all.

The decision is deliberately computed from *tuple counts and static
hints only* — never from live worker metrics — so that a replay of the
same stream makes the same decisions (the fleet's cycle accounting is
deterministic, but workers drain asynchronously, so reading it mid-window
would race).
"""

from __future__ import annotations

from enum import Enum


class ReplanDecision(Enum):
    """What to do about one detected drift event."""

    REPLAN = "replan"     # amortised: pay the cost, refresh the plan
    HOLD = "hold"         # thrashing: a new plan would be stale on arrival
    FREEZE = "freeze"     # absorbed: stop reacting entirely (FIFOs cope)


class CostAwareReplanner:
    """Decides whether a drift event justifies paying the replan cost.

    Parameters
    ----------
    reschedule_cost_cycles:
        Fleet-wide stall charged per applied plan (detection + drain +
        re-enqueue + re-profiling), in simulated cycles.
    cycles_per_tuple:
        Static hint converting drift intervals (measured in tuples) to
        cycles.  A deliberate *hint*, not a live measurement — see the
        module docstring.
    amortize_factor:
        A replan is worthwhile only when the drift interval exceeds
        ``amortize_factor x cost`` — the same "good cycles dominate
        transition cycles" margin :mod:`repro.perf.evolving` uses to
        separate the amortised regime from thrashing.
    burst_tuples:
        Drift intervals at or below this many tuples sit in the
        burst-absorption regime: each distribution's excess queues in the
        worker inboxes/channel FIFOs and drains while other distributions
        are in force, so the controller should freeze instead of chasing
        the hot shard.  0 disables the freeze regime.
    hysteresis_windows:
        Minimum closed windows between applied plans, suppressing
        replan/replan flapping when successive samples straddle the
        drift threshold.
    """

    def __init__(
        self,
        reschedule_cost_cycles: int,
        cycles_per_tuple: float = 0.5,
        amortize_factor: float = 4.0,
        burst_tuples: int = 0,
        hysteresis_windows: int = 2,
    ) -> None:
        if reschedule_cost_cycles < 0:
            raise ValueError("reschedule_cost_cycles must be non-negative")
        if cycles_per_tuple <= 0:
            raise ValueError("cycles_per_tuple must be positive")
        if amortize_factor < 1.0:
            raise ValueError("amortize_factor must be >= 1")
        if burst_tuples < 0:
            raise ValueError("burst_tuples must be non-negative")
        if hysteresis_windows < 0:
            raise ValueError("hysteresis_windows must be non-negative")
        self.reschedule_cost_cycles = reschedule_cost_cycles
        self.cycles_per_tuple = cycles_per_tuple
        self.amortize_factor = amortize_factor
        self.burst_tuples = burst_tuples
        self.hysteresis_windows = hysteresis_windows

    def classify(self, interval_tuples: float) -> str:
        """Fig. 9 regime of a drift interval: absorbed|thrashing|amortised."""
        if self.burst_tuples and interval_tuples <= self.burst_tuples:
            return "absorbed"
        interval_cycles = interval_tuples * self.cycles_per_tuple
        if interval_cycles <= self.amortize_factor * \
                self.reschedule_cost_cycles:
            return "thrashing"
        return "amortised"

    def decide(
        self, interval_tuples: float, windows_since_replan: int
    ) -> ReplanDecision:
        """Decision for one drift event.

        Parameters
        ----------
        interval_tuples:
            Estimated tuples between successive drift events (the fleet
            analogue of Fig. 9's x-axis interval).
        windows_since_replan:
            Closed windows since the last applied plan (hysteresis).
        """
        regime = self.classify(interval_tuples)
        if regime == "absorbed":
            return ReplanDecision.FREEZE
        if regime == "thrashing":
            return ReplanDecision.HOLD
        if windows_since_replan < self.hysteresis_windows:
            return ReplanDecision.HOLD
        return ReplanDecision.REPLAN
