"""Cost-aware rescheduling with hysteresis (the Fig. 9 regimes, fleet-level).

:mod:`repro.perf.evolving` models one pipeline under an evolving hot-key
distribution: rescheduling amortises when the drift interval dwarfs the
rescheduling cost, thrashes when the two are comparable (the plan is
stale most of the time while kernels re-enqueue), and should be disabled
outright when the interval is so small that channel FIFOs absorb each
burst.  The replanner applies the same arithmetic to the serving fleet:
given the estimated interval between drift events, it decides whether a
drift event is worth reacting to at all.  Its margins are read from the
:class:`~repro.control.controller.ControlPolicy` at decision time.

The decision is deliberately computed from *tuple counts and static
hints only* — never from live worker metrics — so that a replay of the
same stream makes the same decisions (the fleet's cycle accounting is
deterministic, but workers drain asynchronously, so reading it mid-window
would race).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.control.controller import ControlPolicy


class ReplanDecision(Enum):
    """What to do about one detected drift event."""

    REPLAN = "replan"     # amortised: pay the cost, refresh the plan
    HOLD = "hold"         # thrashing: a new plan would be stale on arrival
    FREEZE = "freeze"     # absorbed: stop reacting entirely (FIFOs cope)


def classify(policy: "ControlPolicy", cost: int,
             interval_tuples: float) -> str:
    """Fig. 9 regime of a drift interval: absorbed|thrashing|amortised.

    ``cost`` is the fleet-wide stall one applied plan charges, in
    simulated cycles.
    """
    if policy.burst_tuples and interval_tuples <= policy.burst_tuples:
        return "absorbed"
    interval_cycles = interval_tuples * policy.cycles_per_tuple
    if interval_cycles <= policy.amortize_factor * cost:
        return "thrashing"
    return "amortised"


def decide(policy: "ControlPolicy", cost: int, interval_tuples: float,
           windows_since_replan: int) -> ReplanDecision:
    """Decision for one drift event.

    ``interval_tuples`` is the estimated tuples between successive drift
    events (the fleet analogue of Fig. 9's x-axis interval);
    ``windows_since_replan`` counts closed windows since the last
    applied plan (hysteresis).
    """
    regime = classify(policy, cost, interval_tuples)
    if regime == "absorbed":
        return ReplanDecision.FREEZE
    if regime == "thrashing" \
            or windows_since_replan < policy.hysteresis_windows:
        return ReplanDecision.HOLD
    return ReplanDecision.REPLAN
