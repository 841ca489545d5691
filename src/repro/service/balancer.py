"""Cluster-level skew balancers: key-ranges -> pipeline workers.

This is the paper's PriPE/SecPE scheduling lifted one level up.  Inside
one FPGA the runtime profiler histograms per-PriPE workloads and greedily
attaches SecPEs to the hottest PriPEs (Fig. 5); at fleet level the same
histogram + greedy plan (reused directly from
:mod:`repro.core.profiler`) attaches *secondary workers* to the hottest
key-ranges:

* ``M = workers - secondaries`` **primary workers** each own one key
  shard, ``((FLEET_SHARD_SEED * key mod 2^64) >> 32) * M >> 32``: a
  multiply-shift and a multiply-high, as the PrePE routes in a few
  multiplies and shifts.  Its odd multiplier is not the kernels'
  on-chip one, so fleet and on-chip imbalance don't alias.
* ``X = secondaries`` **secondary workers** are floating capacity.
  :meth:`SkewAwareBalancer.observe` builds a shard histogram from each
  window's keys; the fleet's controller
  (:class:`~repro.control.controller.AdaptiveController`) decides when
  to run :func:`~repro.core.profiler.greedy_secpe_plan` on it and
  installs the plan with :meth:`SkewAwareBalancer.apply_plan`; a hot
  shard's tuples are then round-robined across its primary plus the
  attached secondaries — exactly the even-share assumption the greedy
  plan makes.

A non-``splittable`` kernel's job (heavy hitters) is not split: each
window goes whole to one worker, ``window_index % K``
(:meth:`SkewAwareBalancer.route`), so every update of a key in the
window meets in one worker's sketches, as on chip every update of a
key meets in one PE's sketch.  Hitters are detected per segment, and
such a window is one segment whatever the fleet size, so the job's
answer is a one-worker fleet's.

``secondaries=0`` is the naive round-robin baseline
(``make_balancer("roundrobin", K)``): all ``K`` workers are primaries
with a static ``shard -> worker`` assignment and an empty helper plan,
the fleet analogue of the data-routing design without skew handling
that the paper improves on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.profiler import SchedulingPlan
from repro.hashing.multiply_shift import multiply_shift_range
# Unused here: the benchmark (bench/tracing.py) swaps this module's
# name to count hashed keys.  ROADMAP item 2 removes that seam.
from repro.hashing.murmur3 import murmur3_32_array  # noqa: F401
from repro.workloads.tuples import TupleBatch

#: Odd multiplier for fleet sharding — not HISTO's on-chip multiplier
#: (``DEFAULT_MULTIPLIER``), so a fleet shard does not collapse onto one PriPE.
FLEET_SHARD_SEED = 0xD6E8FEB86659FD93


def shard_of_keys(keys: np.ndarray, shards: int,
                  seed: int = FLEET_SHARD_SEED) -> np.ndarray:
    """Fleet shard ID of each key: ``int64`` multiply-shift of the raw
    key, range-reduced into ``[0, shards)``; one shard hashes nothing,
    every id is 0."""
    if shards == 1:
        return np.zeros(len(keys), dtype=np.int64)
    return multiply_shift_range(keys, shards, seed)


class SkewAwareBalancer:
    """Profiled greedy balancing (the paper's Fig. 5 plan, fleet-level).

    Parameters
    ----------
    workers:
        Total pipeline workers K.
    secondaries:
        X — floating helper workers; defaults to ``max(1, K // 4)``
        (0 for a single-worker fleet, which degenerates to static
        sharding).  The remaining ``M = K - X`` workers anchor the key
        shards.

    ``observe`` takes the whole segment's shard ids once (one
    multiply-shift pass) and histograms a sample of at most
    :attr:`PROFILE_SAMPLE` of those ids; ``split`` of the same batch
    routes by the memoised ids, so a window's keys are hashed and
    reduced one time, as the paper's PrePE computes a destination once
    for routing and profiling alike.

    The balancer never plans by itself: ``observe`` only records the
    sample histogram in :attr:`last_histogram`, and every plan arrives
    through :meth:`apply_plan`.
    """

    #: Keys profiled per segment for the controller's plans; the paper
    #: samples a short profiling window rather than the full stream.
    #: Larger segments are subsampled with a seeded RNG.
    PROFILE_SAMPLE = 4096

    #: Seed for the profiling subsampler (distinct from the shard seeds).
    SAMPLE_SEED = 0x5A3C1E

    def __init__(self, workers: int,
                 secondaries: Optional[int] = None) -> None:
        self._shape(workers, secondaries)
        self.rebalances = 0
        self.reconfigurations = 0
        self._rng = np.random.default_rng(self.SAMPLE_SEED)

    def _shape(self, workers: int, secondaries: Optional[int]) -> None:
        """Size the fleet; plan, histogram and memo start fresh."""
        if workers <= 0:
            raise ValueError("workers must be positive")
        if secondaries is None:
            secondaries = max(1, workers // 4) if workers > 1 else 0
        if not 0 <= secondaries < workers:
            raise ValueError(
                "secondaries must leave at least one primary worker")
        self.workers = workers
        self.primaries = workers - secondaries
        self.secondaries = secondaries
        self.plan: Optional[SchedulingPlan] = None
        self.last_histogram: Optional[np.ndarray] = None
        # (keys, shard ids) of the window last observed, for the split
        # of that same array; taken by route, and dropped here, so ids
        # taken modulo a previous fleet's primaries never route.
        self._shards: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._teams = tuple((p,) for p in range(self.primaries))

    def sample_keys(self, keys: np.ndarray) -> np.ndarray:
        """A profiling sample of at most :attr:`PROFILE_SAMPLE` keys.

        Sampling (with replacement, seeded) rather than truncating makes
        the histogram representative of the whole segment instead of its
        head, at the same O(PROFILE_SAMPLE) cost.
        """
        if len(keys) <= self.PROFILE_SAMPLE:
            return keys
        chosen = self._rng.integers(0, len(keys), size=self.PROFILE_SAMPLE)
        return keys[chosen]

    def observe(self, keys: np.ndarray) -> None:
        """Histogram a key sample into :attr:`last_histogram`.

        The sample is drawn from the shard ids of ``keys`` — the
        positions ``sample_keys(keys)`` would draw, so it equals the
        shard ids of that sample — and the ids, not the raw hashes, are
        kept for the ``split`` of that same array.
        """
        if len(keys) == 0:
            return
        shards = shard_of_keys(keys, self.primaries)
        self._shards = (keys, shards)
        # The ids are in [0, primaries) by construction: no range check.
        histogram = np.bincount(self.sample_keys(shards),
                                minlength=self.primaries)
        self.last_histogram = histogram

    def apply_plan(self, plan: SchedulingPlan) -> None:
        """Install the controller's helper plan.

        Worker IDs: primaries are 0..M-1; the plan's SecPE IDs M..M+X-1
        map one-to-one onto the secondary workers.  A plan with the
        pairs in force changes nothing, so it is neither validated again
        nor counted, and the teams stay as they are.
        """
        if self.plan is not None and plan.pairs == self.plan.pairs:
            self.plan = plan  # the teams already serve these pairs
            return
        for secpe_id, target in plan.pairs:
            if not 0 <= target < self.primaries:
                raise ValueError(
                    f"plan targets primary {target}, fleet has "
                    f"{self.primaries}")
            if not self.primaries <= secpe_id < self.workers:
                raise ValueError(
                    f"plan uses secondary {secpe_id}, fleet has workers "
                    f"{self.primaries}..{self.workers - 1}")
        if self.plan is not None:
            self.rebalances += 1
        self.plan = plan
        teams: List[List[int]] = [[p] for p in range(self.primaries)]
        for secpe_id, target in plan.pairs:
            teams[target].append(secpe_id)
        self._teams = tuple(map(tuple, teams))

    def reconfigure(self, workers: int,
                    secondaries: Optional[int] = None) -> None:
        """Reshape the fleet: new worker count and primary/secondary split.

        Called by the autoscaler after resizing the worker pool; also
        usable on its own to convert primaries into secondaries (or back)
        at a fixed fleet size.  The active plan and last histogram are
        dropped — they describe a shard space that no longer exists — so
        the next plan starts fresh; a non-splittable job's next window
        goes to a worker of the new fleet.
        """
        self._shape(workers, secondaries)
        self.reconfigurations += 1

    def team_of(self, primary: int) -> List[int]:
        """Workers currently serving one primary shard."""
        return list(self._teams[primary])

    def reset_key_ownership(self) -> None:
        """No-op: no routing keeps per-key state to forget.

        Kept because the benchmark's replay (``bench/replay.py``) calls
        it for each non-splittable job.
        """

    def route(self, by_key: bool = False,
              window_index: Optional[int] = None) -> "WindowRoute":
        """The routing decision for the window ``observe`` last saw,
        under the plan in force: its teams, and the ids memoised for
        that window (taken, so they route one split at most).

        ``by_key`` (a non-``splittable`` job's window) sends the window
        whole to worker ``window_index % workers``, or to worker 0 with
        no window index: the one-team route ``((worker,),)``.
        """
        memo, self._shards = self._shards, None
        if by_key:
            worker = (window_index or 0) % self.workers
            return WindowRoute(((worker,),), window_index)
        return WindowRoute(self._teams, window_index, memo)

    def split(self, batch: TupleBatch,
              by_key: bool = False) -> Dict[int, TupleBatch]:
        """Partition ``batch`` by :meth:`route` (see
        :meth:`WindowRoute.split`) — the benchmark's replay splits here."""
        return self.route(by_key).split(batch)

    def describe(self) -> str:
        """One-line summary for logs and metrics renderings."""
        if self.secondaries == 0:
            return f"round-robin sharding ({self.workers} static ranges)"
        return (f"skew-aware ({self.primaries} primary + "
                f"{self.secondaries} secondary workers, "
                f"{self.rebalances} rebalances)")


def make_balancer(name: str, workers: int) -> SkewAwareBalancer:
    """Balancer factory used by the service façade and the CLI."""
    if name == "skew":
        return SkewAwareBalancer(workers)
    if name == "roundrobin":
        return SkewAwareBalancer(workers, secondaries=0)
    raise ValueError(f"unknown balancer {name!r} (skew | roundrobin)")


@dataclass(frozen=True)
class WindowRoute:
    """One window's routing decision, applied wherever it is split:
    the plan's ``teams`` (``teams[p]`` serves primary shard ``p``) and
    the ``window_index`` in its job's trace (None: not one of a job's
    windows).  ``memo``, ``observe``'s (keys, shard ids) of the window,
    stays in-process: a pickled route drops it, and whoever splits
    re-derives the same ids from the keys.  Per tuple the rule is
    :meth:`lanes`.  A lane is a worker, and a shard is one lane:
    :attr:`lane_count` sizes a window pass's per-lane arrays."""

    teams: Tuple[Tuple[int, ...], ...]
    window_index: Optional[int] = None
    memo: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, compare=False, repr=False)

    def __reduce__(self):
        return WindowRoute, (self.teams, self.window_index)

    def lanes(self, batch: TupleBatch) -> "Lanes":
        """The routing rule, stated once: which lane each tuple takes.

        Each tuple goes to its shard's team, whose lanes take the
        shard's tuples round-robin.  A lane is the worker its team
        picked, and takes its tuples in stream order; a team alone is
        one lane, its head.  The returned :class:`Lanes` orders the
        lanes into shards.

        The memoised ids route ``batch`` if it is the array they were
        taken from; any other array is hashed here, unless the route
        has one team, whose shard every tuple is.
        """
        memo = self.memo
        ids = (memo[1] if memo is not None and memo[0] is batch.keys
               else shard_of_keys(batch.keys, len(self.teams)))
        spread: Dict[int, np.ndarray] = {}
        for primary, team in enumerate(self.teams):
            if len(team) == 1:
                continue
            mine = (ids == primary).nonzero()[0]
            for index, worker in enumerate(team):
                chosen = mine[index::len(team)]
                if chosen.size:
                    spread[worker] = chosen
        return Lanes(self, ids, spread)

    @cached_property
    def lane_count(self) -> int:
        """Lanes up to the highest worker the route reaches: the size of
        a window pass's per-lane arrays."""
        return max(map(max, self.teams)) + 1

    def split(self, batch: TupleBatch) -> Dict[int, TupleBatch]:
        """Partition ``batch`` into per-worker sub-batches by
        :meth:`lanes`, in split order; a worker gets its tuples in
        stream order."""
        return self.lanes(batch).split(batch)


def _heads(teams: Tuple[Tuple[int, ...], ...], ids: np.ndarray,
           scale: int) -> np.ndarray:
    """``scale`` times the head of each id's team, a fresh int64 array."""
    heads = [team[0] for team in teams]
    if heads == list(range(len(heads))):
        return ids * scale
    return np.asarray(heads)[ids] * scale


class Lanes(NamedTuple):
    """One window's lanes under its :class:`WindowRoute`, and the
    shards they make: each non-empty lane is one shard, on its own
    worker.

    ``ids`` are the window's fleet shard ids: a team alone takes every
    tuple of its shard.  ``spread[w]`` are the stream positions,
    ascending, of each lane ``w`` of a team with helpers that takes any.
    Shards come team by team (the primary, then its helpers): that is
    split order.  :meth:`positions` lists each
    shard's tuples, which :meth:`split` gathers (the per-shard path)
    and a kernel's window pass may gather itself (DP's runs); the
    one-pass path's accounting never gathers: :meth:`cells` labels each
    tuple with its lane and PE, and :meth:`shards` lists the shards
    from the lane counts one ``bincount`` of those labels gives.
    """

    route: WindowRoute
    ids: np.ndarray
    spread: Dict[int, np.ndarray]

    def positions(self) -> Dict[int, np.ndarray]:
        """Each shard's stream positions, ascending, by its worker, in
        split order."""
        ids, spread = self.ids, self.spread
        taken: Dict[int, np.ndarray] = {}
        for primary, team in enumerate(self.route.teams):
            if len(team) > 1:
                taken.update((worker, spread[worker])
                             for worker in team if worker in spread)
                continue
            mine = (ids == primary).nonzero()[0]
            if mine.size:
                taken[team[0]] = mine
        return taken

    def split(self, batch: TupleBatch) -> Dict[int, TupleBatch]:
        """Gather ``batch`` into the shards, in split order."""
        return {worker: TupleBatch(batch.keys[chosen], batch.values[chosen],
                                   batch.tuple_bytes)
                for worker, chosen in self.positions().items()}

    def cells(self, destinations, pripes: int) -> np.ndarray:
        """Each tuple's ``lane * pripes + destination``, a fresh int64
        array: every tuple starts on its team's head, and each helper
        lane's positions are set to the helper in place."""
        cells = _heads(self.route.teams, self.ids, pripes)
        for team in self.route.teams:
            for worker in team[1:]:
                if worker in self.spread:
                    cells[self.spread[worker]] = worker * pripes
        cells += destinations
        return cells

    def shards(self, sizes: Sequence[int]) -> List[int]:
        """The shards' workers, in split order, where ``sizes[lane]`` is
        each lane's tuple count (an empty lane makes no shard)."""
        return [lane for team in self.route.teams
                for lane in team if sizes[lane]]
