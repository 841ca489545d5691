"""Steady-state throughput model.

The architecture's sustained rate is governed by two bounds (DESIGN.md
§4, derived from the backpressure semantics of the routing pipeline):

* the memory interface delivers at most N tuples per cycle;
* a designated PE that receives fraction ``q`` of the stream and retires
  one tuple every II cycles caps the input rate at ``1 / (II * q)``
  (its channel otherwise grows without bound and stalls the combiner).

Hence ``rate = min(N, 1 / (II * max_j q_j))`` tuples per cycle.  With a
scheduling plan attaching ``k_p`` SecPEs to PriPE ``p``, the mapper's
round-robin divides p's share evenly: ``q = share_p / (1 + k_p)``.

Worked example (the paper's headline): N = 8, II = 2, M = 16.
Uniform shares -> q = 1/16 -> rate = 8 (bandwidth-bound).  Zipf alpha=3
-> hottest share ~0.83 -> rate = 0.6, sixteen times slower.  16P+15S
splits the hot PE -> rate back to ~8; with Table III's frequencies the
end-to-end speedup is 16 x 188/246 ~ 12x, the paper's Fig. 7 maximum.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.profiler import SchedulingPlan, greedy_secpe_plan


def effective_shares(
    shares: Sequence[float], plan: Optional[SchedulingPlan] = None
) -> np.ndarray:
    """Per-designated-PE load fractions under a scheduling plan.

    ``shares`` are the per-PriPE fractions of the input stream; the plan
    splits each PriPE's share evenly across itself and its attached
    SecPEs (round-robin mapper).  Returns one entry per *designated* PE
    (PriPEs first, then each SecPE's slice).
    """
    plan = plan or SchedulingPlan(pairs=[])
    return plan.split_loads(shares, len(shares) + len(plan.pairs))


def steady_rate(
    shares: Sequence[float],
    lanes: int = 8,
    ii_pe: int = 2,
    secpes: int = 0,
    plan: Optional[SchedulingPlan] = None,
) -> float:
    """Sustained throughput in tuples per cycle.

    Parameters
    ----------
    shares:
        Per-PriPE input fractions (must sum to ~1).
    lanes:
        N — memory-interface tuples per cycle.
    ii_pe:
        PE initiation interval.
    secpes:
        X — if ``plan`` is None and X > 0, the profiler's greedy plan is
        computed from ``shares`` (the steady state the runtime converges
        to).
    plan:
        Explicit scheduling plan (overrides ``secpes``).
    """
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 1 or shares.size == 0:
        raise ValueError("shares must be a non-empty 1-D sequence")
    if plan is None and secpes > 0:
        plan = greedy_secpe_plan(shares, secpes)
    loads = effective_shares(shares, plan)
    hottest = float(np.max(loads))
    if hottest <= 0.0:
        return float(lanes)
    return min(float(lanes), 1.0 / (ii_pe * hottest))


def steady_throughput_mtps(
    shares: Sequence[float],
    frequency_mhz: float,
    lanes: int = 8,
    ii_pe: int = 2,
    secpes: int = 0,
    plan: Optional[SchedulingPlan] = None,
) -> float:
    """Throughput in million tuples per second at ``frequency_mhz``."""
    rate = steady_rate(shares, lanes=lanes, ii_pe=ii_pe, secpes=secpes,
                       plan=plan)
    return rate * frequency_mhz
