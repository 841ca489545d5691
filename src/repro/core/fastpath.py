"""Vectorized fast-path executor for the serving hot loop.

Every window a :class:`~repro.service.server.StreamService` worker used
to process went through the pure-Python per-cycle simulator, ticking the
combiner, filter/decoders and PEs tuple by tuple.  Dataflow-HLS
compilers (FLOWER, the Cheng & Wawrzynek dataflow template) derive
steady-state pipeline throughput from channel/PE occupancy models rather
than cycle-stepping; this module does the same in NumPy:

* the **application result** is exact — one call of the fused
  :meth:`~repro.core.kernel.KernelSpec.process_shard` hook routes the
  shard and returns what the PE array would hold after it (kernels
  that don't opt in fall back to the per-tuple loop): every tuple
  routed to PriPE ``p`` counts as landing in ``p``'s private buffer,
  in stream order, so the output is bit-identical to the cycle
  engine's — but the storage itself is not stepped: partitioned
  buffers need no aggregation, so the one-pass reduction over the
  shard already *is* the collected result and nothing is zeroed,
  folded per PE or de-interleaved on the way;
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

A fleet splits a window into K workers' shards.  The window need not
be gathered into K batches and run K times: :func:`run_lanes` makes one
kernel call on the whole window — an order-free kernel's
:meth:`~repro.core.kernel.KernelSpec.process_shard`, whose
whole-window result the first shard carries, or any other kernel's
:meth:`~repro.core.kernel.KernelSpec.process_lanes`, every worker's own
state: heavy hitters' sketches from one keyed pass, DP's own runs
of keys from one stable sort by lane — and then one
``bincount(lane * M + destination)``, the PrePE's destination reused as
the route's label, gives every lane's tuples and PE loads.  The shards
are listed from those lane counts, and each shard's cycles follow by
the same rule as above — the bottleneck bound, or the epoch model over
the shard's own destinations in its own order.  Each shard's modeled
outcome is the one :func:`run_fast` gives it alone.

The cycle-accurate engine remains the oracle: the equivalence suite in
``tests/core/test_fastpath.py`` asserts bit-identical results and
modeled cycles within 10% of simulated across Zipf skew factors.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.architecture import ArchitectureResult
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


def stable_order(labels: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(labels, kind="stable")`` for int64 labels in
    ``[0, bound)``.

    The labels are sorted as the narrowest unsigned dtype that holds
    ``bound``: at 8 and 16 bits NumPy's stable sort is a radix sort, an
    order of magnitude cheaper than int64 timsort for the same
    permutation.  Wider bounds sort the labels as they are.
    """
    for dtype in (np.uint8, np.uint16):
        if bound <= np.iinfo(dtype).max + 1:
            return np.argsort(labels.astype(dtype), kind="stable")
    return np.argsort(labels, kind="stable")


def group_spans(labels: np.ndarray,
                bound: int) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Group the positions of int64 ``labels`` in ``[0, bound)`` by value.

    Returns ``(order, spans)``: ``order`` is :func:`stable_order`'s
    permutation, and each ``(label, start, stop)`` of ``spans``, in
    ascending label order, says ``order[start:stop]`` are that label's
    positions in stream order.  A consumer gathers once through
    ``order`` and slices per group, instead of indexing per group.
    """
    order = stable_order(labels, bound)
    sorted_labels = labels[order]
    breaks = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
    edges = [0, *breaks.tolist(), order.size] if order.size else []
    return order, list(zip(sorted_labels[edges[:-1]].tolist(),
                           edges[:-1], edges[1:]))


def bottleneck_cycles(config: ArchitectureConfig, tuples: int,
                      max_pe_load: int) -> int:
    """The analytic completion bound for a plain data-routing run.

    ``max(ceil(N / lanes), max_pe_load * II)`` — bandwidth-bound on
    balanced streams, hot-PE-bound under skew.
    """
    bandwidth = -(-tuples // config.lanes)
    return max(bandwidth, max_pe_load * config.ii_pe) + PIPELINE_FILL_CYCLES


class _ModeledResult(ArchitectureResult):
    """A fast-path :class:`ArchitectureResult`.

    ``report`` and ``pe_tuple_counts`` describe a run nobody stepped;
    no serving caller reads them, so they are derived on first read
    instead of once per shard, from ``counts``, the run's tuples per
    PriPE.
    """

    def __init__(self, config: ArchitectureConfig, result, tuples: int,
                 cycles: int, counts: Sequence[int],
                 plans: List[SchedulingPlan], reschedules: int) -> None:
        self.config = config
        self.result = result
        self.tuples = tuples
        self.cycles = cycles
        self.plans = plans
        self.reschedules = reschedules
        self._counts = counts

    @cached_property
    def report(self) -> SimulationReport:
        return SimulationReport(
            cycles=self.cycles,
            completed=True,
            module_utilization={"fastpath": 1.0},
        )

    @cached_property
    def pe_tuple_counts(self) -> Dict[int, int]:
        # Modeled: the final plan's even split of each PriPE's count.
        plan = self.plans[-1] if self.plans else SchedulingPlan(pairs=[])
        loads = plan.split_loads(self._counts, self.config.designated_pes)
        return {pe: int(round(load)) for pe, load in enumerate(loads)}


def run_fast(config: ArchitectureConfig, kernel: KernelSpec,  # hot-path
             batch: TupleBatch) -> ArchitectureResult:
    """Process ``batch`` through the vectorized fast path.

    Returns the same :class:`~repro.core.architecture.ArchitectureResult`
    shape as the cycle engine: an exact application result plus modeled
    cycles, per-PE loads and scheduling plans.
    """
    tuples = len(batch)
    if tuples == 0:
        raise ValueError("cannot run an empty batch")
    kernel.pripes = config.pripes

    # Exact result: one fused pass routes the shard and reduces it to
    # what the PriPEs' private buffers would collect to, stream order
    # kept within each PE.  SecPE partials always merge back into (or
    # union with) the owning PriPE's state, so routing straight to the
    # PriPE reproduces the post-merge result.
    destinations, result = kernel.process_shard(batch.keys, batch.values)

    # Modeled cycles.  Without skew handling the closed-form bottleneck
    # applies; with SecPEs the windowed epoch model captures the
    # profiling transient and the hot channel's drain.
    counts = np.bincount(destinations, minlength=config.pripes)
    if config.skew_handling:
        # Imported here: repro.perf.epoch imports repro.core, whose
        # package init imports this module.
        from repro.perf.epoch import EpochModel

        epoch = EpochModel(config).run(destinations)
        cycles = int(round(epoch.cycles))
        plans, reschedules = list(epoch.plans), epoch.reschedules
    else:
        cycles = bottleneck_cycles(config, tuples, int(counts.max()))
        plans, reschedules = [], 0
    return _ModeledResult(config, result, tuples, cycles, counts, plans,
                          reschedules)


def run_lanes(config: ArchitectureConfig, kernel: KernelSpec,  # hot-path
              batch: TupleBatch, lanes) -> List[Tuple[int,
                                                        ArchitectureResult]]:
    """Process ``batch`` as the shards its ``lanes`` make, in one pass.

    ``lanes`` is the window's :class:`~repro.service.balancer.Lanes`;
    each non-empty lane is one shard, on its own worker.  Returns
    ``(worker, outcome)`` per shard, in split order (as
    :meth:`~repro.service.balancer.Lanes.split` would list them), each
    outcome with exactly the tuples, cycles, PE loads and plans
    :func:`run_fast` models for that shard on its own — its lane's
    tuples in stream order — and the shard's result: an
    :attr:`~repro.core.kernel.KernelSpec.order_free` kernel's
    whole-window result on the first shard and None on the rest, or
    the state :meth:`~repro.core.kernel.KernelSpec.process_lanes` gives
    the shard's worker (heavy hitters' own hitters, DP's own runs),
    whose answer is read at collect.
    """
    if len(batch) == 0:
        raise ValueError("cannot run an empty batch")
    pripes = kernel.pripes = config.pripes
    # Every shard's exact result from one kernel call.
    if kernel.order_free:
        destinations, result = kernel.process_shard(batch.keys,
                                                    batch.values)
    else:
        destinations, results = kernel.process_lanes(batch.keys,
                                                     batch.values, lanes)

    # One bincount counts every lane's tuples per PriPE; the shards are
    # the non-empty lanes.
    cells = lanes.cells(destinations, pripes)
    rows = _lane_rows(cells, lanes.route.lane_count, pripes)
    lane_sizes = list(map(sum, rows))
    shards = lanes.shards(lane_sizes)
    if kernel.order_free:
        results = [result] + [None] * (len(shards) - 1)
    else:
        results = [results[worker] for worker in shards]
    loads = [rows[worker] for worker in shards]
    sizes = [lane_sizes[worker] for worker in shards]

    # Modeled cycles, per shard, by run_fast's rule.
    if config.skew_handling:
        modeled = [(int(round(epoch.cycles)), list(epoch.plans),
                    epoch.reschedules) for epoch in _shard_epochs(
                        config, destinations, cells // pripes, lane_sizes,
                        shards)]
    else:
        modeled = [(bottleneck_cycles(config, size, max(load)), [], 0)
                   for size, load in zip(sizes, loads)]
    return [(worker, _ModeledResult(config, shard_result, size, cycles,
                                    load, plans, reschedules))
            for worker, shard_result, size, load,
            (cycles, plans, reschedules)
            in zip(shards, results, sizes, loads, modeled)]


def _lane_rows(cells: np.ndarray, lane_count: int,
               pripes: int) -> List[List[int]]:
    """Each lane's tuples per PriPE from one bincount of the tuples'
    ``lane * pripes + destination`` cells, as Python ints: the rows are
    a few dozen counts, so summing them in Python costs less than a
    NumPy reduction per shard."""
    return np.bincount(cells, minlength=lane_count * pripes).reshape(
        lane_count, pripes).tolist()


def _shard_epochs(config: ArchitectureConfig, destinations: np.ndarray,
                  lane_of: np.ndarray, lane_sizes: Sequence[int],
                  shards: Sequence[int]) -> list:
    """The epoch model over each shard's destinations in the shard's
    own order: its lane's, in stream order."""
    # Imported here: repro.perf.epoch imports repro.core, whose
    # package init imports this module.
    from repro.perf.epoch import EpochModel

    ordered = destinations[stable_order(lane_of, len(lane_sizes))]
    edges = np.concatenate(([0], np.cumsum(lane_sizes))).tolist()
    return [EpochModel(config).run(ordered[edges[lane]:edges[lane + 1]])
            for lane in shards]
