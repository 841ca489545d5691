"""Vectorized fast-path executor for the serving hot loop.

Every window a :class:`~repro.service.server.StreamService` worker used
to process went through the pure-Python per-cycle simulator, ticking the
combiner, filter/decoders and PEs tuple by tuple.  Dataflow-HLS
compilers (FLOWER, the Cheng & Wawrzynek dataflow template) derive
steady-state pipeline throughput from channel/PE occupancy models rather
than cycle-stepping; this module does the same in NumPy:

* the **application result** is exact — the whole routed shard is
  applied to the PE array in one call of the vectorised
  :meth:`~repro.core.kernel.KernelSpec.process_routed` hook (kernels
  that don't opt in fall back to the per-tuple loop): every tuple
  routed to PriPE ``p`` lands in ``p``'s private buffer, in stream
  order, so the collected output is bit-identical to the cycle engine's;
* the **cycle count** is modeled from the analytic bottleneck.  Without
  skew handling the pipeline's completion time is governed by
  ``max(ceil(N / lanes), max_pe_load * II)`` — the memory interface
  delivers ``lanes`` tuples per cycle and the most loaded PE retires one
  tuple every ``II`` cycles (its backpressure is what collapses
  throughput to 1/M under extreme skew, Fig. 2b) — plus a small
  pipeline-fill constant.  With SecPEs the profiling warm-up, the greedy
  plan hand-over and the hot channel's backlog drain dominate, so the
  model delegates to the windowed :class:`~repro.perf.epoch.EpochModel`
  (still vectorised, O(N / window) work).

The cycle-accurate engine remains the oracle: the equivalence suite in
``tests/core/test_fastpath.py`` asserts bit-identical results and
modeled cycles within 10% of simulated across Zipf skew factors.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.core.kernel import KernelSpec
from repro.core.profiler import SchedulingPlan
from repro.sim.engine import SimulationReport
from repro.workloads.tuples import TupleBatch

#: Engine names accepted by the ``engine=`` switches across the stack.
ENGINES = ("fast", "cycle")

#: Cycles for the first tuple to traverse mem-engine -> PrePE ->
#: combiner -> filter -> PE (calibrated against the cycle simulator;
#: the residual is well under the 10% equivalence tolerance).
PIPELINE_FILL_CYCLES = 10


def validate_engine(engine: str) -> str:
    """Return ``engine`` or raise on an unknown name."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINES}")
    return engine


def group_spans(labels: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(label, positions)`` per distinct label value.

    ``positions`` index the original array in stream order (stable
    argsort), so consumers that append per group preserve arrival
    order within each group.
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    for span in np.split(order, boundaries):
        if span.size:
            yield int(labels[span[0]]), span


def bottleneck_cycles(config: ArchitectureConfig, tuples: int,
                      max_pe_load: int) -> int:
    """The analytic completion bound for a plain data-routing run.

    ``max(ceil(N / lanes), max_pe_load * II)`` — bandwidth-bound on
    balanced streams, hot-PE-bound under skew.
    """
    bandwidth = -(-tuples // config.lanes)
    return max(bandwidth, max_pe_load * config.ii_pe) + PIPELINE_FILL_CYCLES


def _modeled_pe_counts(
    config: ArchitectureConfig,
    counts: np.ndarray,
    plan: Optional[SchedulingPlan],
) -> dict:
    """Per-designated-PE tuple counts under the final plan (modeled)."""
    if plan is None or not plan.pairs:
        return dict(enumerate(counts.tolist() + [0] * config.secpes))
    designated = np.zeros(config.designated_pes, dtype=np.float64)
    attached = np.zeros(config.pripes, dtype=np.int64)
    for _, pripe in plan.pairs:
        attached[pripe] += 1
    designated[: config.pripes] = counts / (1 + attached)
    for secpe, pripe in plan.pairs:
        designated[secpe] = counts[pripe] / (1 + attached[pripe])
    return {pe: int(round(load)) for pe, load in enumerate(designated)}


def run_fast(config: ArchitectureConfig, kernel: KernelSpec,
             batch: TupleBatch):
    """Process ``batch`` through the vectorized fast path.

    Returns the same :class:`~repro.core.architecture.ArchitectureResult`
    shape as the cycle engine: an exact application result plus modeled
    cycles, per-PE loads and scheduling plans.
    """
    from repro.core.architecture import ArchitectureResult

    if len(batch) == 0:
        raise ValueError("cannot run an empty batch")
    kernel.pripes = config.pripes

    destinations = np.asarray(kernel.route_array(batch.keys),
                              dtype=np.int64)
    values = kernel.prepare_value_array(batch.keys, batch.values)

    # Exact result: one pass applies the shard to every PriPE's private
    # buffer, stream order kept within each PE.  SecPE partials always
    # merge back into (or union with) the owning PriPE's state, so
    # routing straight to the PriPE reproduces the post-merge result.
    buffers = [kernel.make_buffer() for _ in range(config.pripes)]
    kernel.process_routed(buffers, destinations, batch.keys, values)
    result = kernel.collect(buffers)

    # Modeled cycles.  Without skew handling the closed-form bottleneck
    # applies; with SecPEs the windowed epoch model captures the
    # profiling transient and the hot channel's drain.
    counts = np.bincount(destinations, minlength=config.pripes)
    if config.skew_handling:
        from repro.perf.epoch import EpochModel

        epoch = EpochModel(config).run(destinations)
        cycles = int(round(epoch.cycles))
        plans, reschedules = list(epoch.plans), epoch.reschedules
    else:
        cycles = bottleneck_cycles(config, len(batch), int(counts.max()))
        plans, reschedules = [], 0
    final_plan = plans[-1] if plans else None
    report = SimulationReport(
        cycles=cycles,
        completed=True,
        module_utilization={"fastpath": 1.0},
    )
    return ArchitectureResult(
        result=result,
        cycles=cycles,
        tuples=len(batch),
        report=report,
        pe_tuple_counts=_modeled_pe_counts(config, counts, final_plan),
        plans=plans,
        reschedules=reschedules,
        config=config,
    )
