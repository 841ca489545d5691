"""Adaptive control plane for the stream-serving fleet.

The paper's Fig. 9 shows that skew-oblivious routing lives or dies by
*when* it reschedules: replanning amortises under slow drift, thrashes
when drift outpaces the rescheduling cost, and should be suppressed
entirely when channel FIFOs absorb bursts.  This package closes the same
loop one level up, around the worker fleet of :mod:`repro.service`:

``detector``
    Fleet-level drift detection — the profiler's workload-distribution
    monitor (§IV-C3) lifted to worker granularity: flag when the observed
    per-shard histogram diverges from the histogram the active plan was
    built from.
``replanner``
    Cost-aware rescheduling with hysteresis, reusing the Fig. 9 regime
    math from :mod:`repro.perf.evolving`: replan when the drift interval
    amortises the rescheduling cost, hold the plan when replanning would
    thrash, freeze entirely in the burst-absorption regime.  Two
    functions of the policy, the cost and the drift interval.  A replan
    always adopts the greedy plan of the merged histogram it is made
    for, as the paper's host re-runs the greedy SecPE assignment on
    every reschedule; no plan is reused.
``autoscaler``
    Elastic worker-pool sizing against a cycles-per-tuple SLO.
``controller``
    The :class:`AdaptiveController` façade that every
    :class:`~repro.service.server.StreamService` consults once per
    closed window, and :class:`ControlPolicy`, the one declaration,
    default and validation of the loop's tunables; its ``reflexive``
    preset (``adaptive=False``, the default) replans every window.  The
    rescheduling cost is not among them: the service resolves it once
    and hands the controller that integer.
"""

from repro.control.autoscaler import Autoscaler, ScaleDecision
from repro.control.controller import AdaptiveController, ControlPolicy
from repro.control.detector import DriftDetector, DriftReport
from repro.control.replanner import ReplanDecision

__all__ = [
    "AdaptiveController",
    "Autoscaler",
    "ControlPolicy",
    "DriftDetector",
    "DriftReport",
    "ReplanDecision",
    "ScaleDecision",
]
