"""Elastic worker-pool sizing against a cycles-per-tuple SLO.

The serving fleet's throughput denominator is the busiest worker's
simulated cycles (workers run in parallel), so the fleet-level service
objective is naturally *cycles per tuple*: makespan growth over tuple
throughput.  The autoscaler watches that quantity over recent windows
and sizes the fleet to hold it at the SLO — growing when the fleet falls
behind, shrinking when capacity sits idle — in the spirit of the HLS
memcached server's SLA-driven provisioning (Karras et al.): provision
for the load you see, not the worst case you fear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.control.controller import ControlPolicy

#: Workers added or removed per resize.
STEP = 1


@dataclass(frozen=True)
class ScaleDecision:
    """Outcome of one autoscaling check."""

    size: int                       # fleet size to run with from now on
    observed_cycles_per_tuple: float
    reason: str                     # "grow" | "shrink" | "hold"


class Autoscaler:
    """Sizes the worker fleet to a cycles-per-tuple SLO.

    ``slo_cycles_per_tuple`` is the target upper bound on fleet cycles
    per tuple (the inverse of the fleet tuples/cycle throughput).  The
    size clamps, the shrink margin and the cooldown are the
    :class:`~repro.control.controller.ControlPolicy` handed to each
    :meth:`decide`.
    """

    def __init__(self, slo_cycles_per_tuple: float) -> None:
        if slo_cycles_per_tuple <= 0:
            raise ValueError("slo_cycles_per_tuple must be positive")
        self.slo = slo_cycles_per_tuple
        self._cooldown = 0

    def decide(
        self, policy: "ControlPolicy", tuples_delta: int,
        busy_cycles_delta: int, size: int, slo_pressure: bool = False,
    ) -> ScaleDecision:
        """Fleet size for the next stretch of windows.

        Parameters
        ----------
        policy:
            The loop's tunables, read now.
        tuples_delta:
            Tuples processed since the previous check.
        busy_cycles_delta:
            Busiest-worker cycle growth since the previous check —
            *worker* cycles only, excluding fleet-wide rescheduling
            stalls, which adding workers cannot fix.
        size:
            Current fleet size.
        slo_pressure:
            True when some *tenant-level* SLO (queue-delay attainment)
            is slipping: grow even if the fleet-wide cycles-per-tuple
            objective is met, and never shrink — idle-looking capacity
            is what lets a starved tenant catch up.
        """
        if tuples_delta <= 0:
            return ScaleDecision(size, 0.0, "hold")
        observed = busy_cycles_delta / tuples_delta
        if self._cooldown > 0:
            self._cooldown -= 1
            return ScaleDecision(size, observed, "hold")
        if (slo_pressure or observed > self.slo) \
                and size < policy.max_workers:
            self._cooldown = policy.scale_cooldown
            return ScaleDecision(
                min(size + STEP, policy.max_workers), observed, "grow")
        if observed < policy.shrink_margin * self.slo \
                and size > policy.min_workers and not slo_pressure:
            self._cooldown = policy.scale_cooldown
            return ScaleDecision(
                max(size - STEP, policy.min_workers), observed, "shrink")
        return ScaleDecision(size, observed, "hold")
