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
* ``X = secondaries`` **secondary workers** are floating capacity.  Each
  profiling round builds a shard histogram from the observed keys and
  runs :func:`~repro.core.profiler.greedy_secpe_plan`; a hot shard's
  tuples are then round-robined across its primary plus the attached
  secondaries — exactly the even-share assumption the greedy plan makes.

A non-``splittable`` kernel's job (heavy hitters) is split *by key*
with the same stateless rule at a different lane choice: a tuple of
shard ``p`` goes to the lane that hash under ``TEAM_SEED`` picks in
``range(len(team))``, so a key stays whole within each window's split.
No per-key table is kept — as on chip, where the PrePE routes by
``HASH(key) & mask`` alone — so a key may land on another worker in a
later window; heavy hitters are detected per segment (one worker's
shard of one window), which that does not change.

``secondaries=0`` is the naive round-robin baseline
(``make_balancer("roundrobin", K)``): all ``K`` workers are primaries
with a static ``shard -> worker`` assignment and an empty helper plan,
the fleet analogue of the data-routing design without skew handling
that the paper improves on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.profiler import SchedulingPlan, greedy_secpe_plan
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
    key, range-reduced into ``[0, shards)``."""
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
    profile_sample:
        Keys profiled per segment before (re)planning; the paper samples
        a short profiling window rather than the full stream.  Segments
        larger than this are subsampled with a seeded RNG.  ``observe``
        takes the whole segment's shard ids once (one multiply-shift
        pass) and histograms the sample of those ids; ``split`` of
        the same batch routes by the memoised ids, so a window's keys
        are hashed and reduced one time, as the paper's PrePE computes
        a destination once for routing and profiling alike.
    auto_replan:
        When True (default), every ``observe`` refreshes the greedy
        helper plan — the reflexive per-segment rescheduling the paper's
        Fig. 9 shows can thrash.  The adaptive control plane
        (:mod:`repro.control`) turns this off and supplies plans
        explicitly through :meth:`apply_plan`; ``observe`` then only
        records the sample histogram in :attr:`last_histogram`.
    """

    #: Seed for the profiling subsampler (distinct from the shard seeds).
    SAMPLE_SEED = 0x5A3C1E

    def __init__(self, workers: int, secondaries: Optional[int] = None,
                 profile_sample: int = 4096,
                 auto_replan: bool = True) -> None:
        if profile_sample <= 0:
            raise ValueError("profile_sample must be positive")
        self._shape(workers, secondaries)
        self.rebalances = 0
        self.reconfigurations = 0
        self.profile_sample = profile_sample
        self.auto_replan = auto_replan
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
        """A profiling sample of at most ``profile_sample`` keys.

        Sampling (with replacement, seeded) rather than truncating makes
        the histogram representative of the whole segment instead of its
        head, at the same O(profile_sample) cost.
        """
        if len(keys) <= self.profile_sample:
            return keys
        chosen = self._rng.integers(0, len(keys), size=self.profile_sample)
        return keys[chosen]

    def observe(self, keys: np.ndarray) -> None:
        """Histogram a key sample; refresh the plan if auto-replanning.

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
        if not self.auto_replan:
            return
        self.apply_plan(greedy_secpe_plan(histogram, self.secondaries,
                                          self.primaries))

    def apply_plan(self, plan: SchedulingPlan) -> None:
        """Install an externally-supplied (or freshly built) helper plan.

        Worker IDs: primaries are 0..M-1; the plan's SecPE IDs M..M+X-1
        map one-to-one onto the secondary workers.
        """
        for secpe_id, target in plan.pairs:
            if not 0 <= target < self.primaries:
                raise ValueError(
                    f"plan targets primary {target}, fleet has "
                    f"{self.primaries}")
            if not self.primaries <= secpe_id < self.workers:
                raise ValueError(
                    f"plan uses secondary {secpe_id}, fleet has workers "
                    f"{self.primaries}..{self.workers - 1}")
        if self.plan is not None and plan.pairs != self.plan.pairs:
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
        the next plan starts fresh; by-key routing, which keeps no
        per-key state, follows the new teams from the next split.
        """
        self._shape(workers, secondaries)
        self.reconfigurations += 1

    def team_of(self, primary: int) -> List[int]:
        """Workers currently serving one primary shard."""
        return list(self._teams[primary])

    def reset_key_ownership(self) -> None:
        """No-op: by-key routing keeps no per-key state to forget.

        Kept because the benchmark's replay (``bench/replay.py``) calls
        it for each by-key job.
        """

    #: Odd multiplier for intra-team key spreading; not the shard one, so
    #: a shard's keys do not all collapse onto one team lane.
    TEAM_SEED = 0xA0761D6478BD642F

    def route(self, by_key: bool = False,
              worker_quota: Optional[int] = None,
              window_index: Optional[int] = None) -> "WindowRoute":
        """The routing decision for the window ``observe`` last saw,
        under the plan in force: its teams, and the ids memoised for
        that window (taken, so they route one split at most)."""
        memo, self._shards = self._shards, None
        return WindowRoute(self._teams, by_key, worker_quota, window_index,
                           memo)

    def split(self, batch: TupleBatch,
              by_key: bool = False) -> Dict[int, TupleBatch]:
        """Partition ``batch`` by :meth:`route` (see
        :meth:`WindowRoute.split`) — the benchmark's replay splits here."""
        return self.route(by_key).split(batch)

    def describe(self) -> str:
        """One-line summary for logs and metrics renderings."""
        if self.secondaries == 0:
            return f"round-robin sharding ({self.workers} static ranges)"
        mode = "auto" if self.auto_replan else "controlled"
        return (f"skew-aware ({self.primaries} primary + "
                f"{self.secondaries} secondary workers, "
                f"{self.rebalances} rebalances, {mode})")


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
    the plan's ``teams`` (``teams[p]`` serves primary shard ``p``),
    ``by_key`` lanes, the tenant's ``worker_quota`` (None: no cap below
    the fleet size) and the ``window_index`` in its job's trace (None:
    not one of a job's windows).  ``memo``, ``observe``'s (keys, shard
    ids) of the window, stays in-process: a pickled route drops it,
    and whoever splits re-derives the same ids from the keys."""

    teams: Tuple[Tuple[int, ...], ...]
    by_key: bool = False
    worker_quota: Optional[int] = None
    window_index: Optional[int] = None
    memo: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, compare=False, repr=False)

    def __reduce__(self):
        return WindowRoute, (self.teams, self.by_key, self.worker_quota,
                             self.window_index)

    def split(self, batch: TupleBatch) -> Dict[int, TupleBatch]:
        """Partition ``batch`` into per-worker sub-batches.

        Each tuple goes to its shard's team.  By default the team's
        lanes take the shard's tuples round-robin; ``by_key`` (non-
        ``splittable`` kernels such as heavy-hitter detection, whose
        per-key sketch state cannot be diluted across workers) picks
        the lane by the shard hash under ``TEAM_SEED`` instead, so one
        key's tuples all land on one worker, and returns the
        sub-batches in ascending worker order.  Either way a worker
        gets its tuples in stream order.  Past ``worker_quota``, a
        worker's shard folds onto ``worker % worker_quota`` in
        ascending worker order — deterministic, so a by-key window's
        key still lands on one (folded) worker.

        The memoised ids route ``batch`` if it is the array they were
        taken from; any other array is hashed here.
        """
        memo = self.memo
        shards = (memo[1] if memo is not None and memo[0] is batch.keys
                  else shard_of_keys(batch.keys, len(self.teams)))
        out: Dict[int, TupleBatch] = {}
        for primary, team in enumerate(self.teams):
            positions = np.nonzero(shards == primary)[0]
            if positions.size == 0:
                continue
            lanes = (shard_of_keys(batch.keys[positions], len(team),
                                   SkewAwareBalancer.TEAM_SEED)
                     if self.by_key and len(team) > 1 else None)
            for lane, worker in enumerate(team):
                chosen = (positions[lane::len(team)] if lanes is None
                          else positions[lanes == lane])
                if chosen.size == 0:
                    continue
                out[worker] = TupleBatch(batch.keys[chosen],
                                         batch.values[chosen],
                                         batch.tuple_bytes)
        quota = self.worker_quota
        if quota is None:
            return dict(sorted(out.items())) if self.by_key else out
        folded: Dict[int, TupleBatch] = {}
        for worker_id in sorted(out):
            target = worker_id % quota
            folded[target] = (folded[target].concat(out[worker_id])
                              if target in folded else out[worker_id])
        return folded
