"""Cluster-level skew balancers: key-ranges -> pipeline workers.

This is the paper's PriPE/SecPE scheduling lifted one level up.  Inside
one FPGA the runtime profiler histograms per-PriPE workloads and greedily
attaches SecPEs to the hottest PriPEs (Fig. 5); at fleet level the same
histogram + greedy plan (reused directly from
:mod:`repro.core.profiler`) attaches *secondary workers* to the hottest
key-ranges:

* ``M = workers - secondaries`` **primary workers** each own one key
  shard (a hash range of the key space, hashed independently of the
  kernels' on-chip routing so fleet and on-chip imbalance don't alias).
* ``X = secondaries`` **secondary workers** are floating capacity.  Each
  profiling round builds a shard histogram from the observed keys and
  runs :func:`~repro.core.profiler.greedy_secpe_plan`; a hot shard's
  tuples are then round-robined across its primary plus the attached
  secondaries — exactly the even-share assumption the greedy plan makes.

``secondaries=0`` is the naive round-robin baseline
(``make_balancer("roundrobin", K)``): all ``K`` workers are primaries
with a static ``shard -> worker`` assignment and an empty helper plan,
the fleet analogue of the data-routing design without skew handling
that the paper improves on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.profiler import SchedulingPlan, greedy_secpe_plan
from repro.hashing.murmur3 import murmur3_32_array
from repro.workloads.tuples import TupleBatch

#: Hash seed for fleet sharding — distinct from any kernel's on-chip
#: routing hash so a fleet shard does not collapse onto one PriPE.
FLEET_SHARD_SEED = 0x51EE7


def _shard_ids(keys: np.ndarray, shards: int,
               seed: int = FLEET_SHARD_SEED) -> np.ndarray:
    """``uint32`` murmur3 ``% shards`` of each key, as ``h - h // s * s``:
    NumPy divides by a scalar fast (libdivide), ``%`` it does not."""
    ids = murmur3_32_array(keys, seed=seed)
    ids -= ids // np.uint32(shards) * np.uint32(shards)
    return ids


def shard_of_keys(keys: np.ndarray, shards: int,
                  seed: int = FLEET_SHARD_SEED) -> np.ndarray:
    """Fleet shard ID of each key (murmur3 over the raw key)."""
    if shards <= 0:
        raise ValueError("shards must be positive")
    return _shard_ids(keys, shards, seed).astype(np.int64)


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
        takes the whole segment's shard ids once (one murmur3 pass, one
        modulus) and histograms the sample of those ids; ``split`` of
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
        # Sticky by-key ownership: non-splittable kernels need each key's
        # tuples on ONE worker for a job's whole lifetime, across
        # rebalances and team reconfigurations.  Grows with the distinct
        # keys of by-key jobs; reset_key_ownership() between tenants.
        self._key_owner: Dict[int, int] = {}

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
        # of that same array; dropped by split, and here, so ids taken
        # modulo a previous fleet's primaries never route.
        self._shards: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._teams = [[p] for p in range(self.primaries)]

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
        shards = _shard_ids(keys, self.primaries)
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
        self._teams = teams

    def reconfigure(self, workers: int,
                    secondaries: Optional[int] = None) -> None:
        """Reshape the fleet: new worker count and primary/secondary split.

        Called by the autoscaler after resizing the worker pool; also
        usable on its own to convert primaries into secondaries (or back)
        at a fixed fleet size.  The active plan and last histogram are
        dropped — they describe a shard space that no longer exists — so
        the next plan starts fresh.  Sticky by-key ownership survives:
        keys whose owner still exists stay put, only keys owned by a
        removed worker are reassigned.
        """
        self._shape(workers, secondaries)
        self.reconfigurations += 1

    def team_of(self, primary: int) -> List[int]:
        """Workers currently serving one primary shard."""
        return list(self._teams[primary])

    def reset_key_ownership(self) -> None:
        """Forget sticky by-key assignments (e.g. between tenants)."""
        self._key_owner.clear()

    #: Seed for intra-team key spreading; distinct from the shard seed
    #: so a shard's keys do not all collapse onto one team lane.
    TEAM_SEED = 0x7EA12

    def split(self, batch: TupleBatch,
              by_key: bool = False) -> Dict[int, TupleBatch]:
        """Partition ``batch`` into per-worker sub-batches.

        ``by_key=True`` guarantees one key's tuples all land on the
        same worker (required by non-``splittable`` kernels such as
        heavy-hitter detection, whose per-key state cannot be diluted
        across independent sketches).

        A tuple split of the array ``observe`` last saw routes by its
        memoised shard ids, of any other array by hashing it here;
        either way the memo is dropped.
        """
        memo, self._shards = self._shards, None
        if by_key:
            return self._split_by_key(batch)
        shards = (memo[1] if memo is not None and memo[0] is batch.keys
                  else _shard_ids(batch.keys, self.primaries))
        out: Dict[int, TupleBatch] = {}
        for primary in range(self.primaries):
            positions = np.nonzero(shards == primary)[0]
            if positions.size == 0:
                continue
            team = self._teams[primary]
            for lane, worker in enumerate(team):
                chosen = positions[lane::len(team)]
                if chosen.size == 0:
                    continue
                out[worker] = TupleBatch(batch.keys[chosen],
                                         batch.values[chosen],
                                         batch.tuple_bytes)
        return out

    def _split_by_key(self, batch: TupleBatch) -> Dict[int, TupleBatch]:
        """Key-granular split with sticky ownership.

        Non-splittable kernels (heavy hitters) keep per-key state that
        must never be diluted across workers, not just within one window
        but across the job's lifetime: the first worker to see a key owns
        it until that worker leaves the fleet, whatever rebalances or
        reconfigurations happen in between.  New keys are placed with the
        *current* team routing, so balancing still helps fresh traffic.
        """
        uniques, inverse = np.unique(batch.keys, return_inverse=True)
        owners = np.array(
            [self._key_owner.get(key, -1) for key in uniques.tolist()],
            dtype=np.int64)
        unseen = np.nonzero((owners < 0) | (owners >= self.workers))[0]
        if unseen.size:
            placed = self._place_keys(uniques[unseen])
            owners[unseen] = placed
            for key, worker in zip(uniques[unseen].tolist(),
                                   placed.tolist()):
                self._key_owner[key] = worker
        per_tuple = owners[inverse]
        out: Dict[int, TupleBatch] = {}
        for worker in np.unique(per_tuple):
            mask = per_tuple == worker
            out[int(worker)] = TupleBatch(batch.keys[mask],
                                          batch.values[mask],
                                          batch.tuple_bytes)
        return out

    def _place_keys(self, keys: np.ndarray) -> np.ndarray:
        """First-placement of unseen keys: each shard's team, hashed by
        key.

        Spreading a shard's *keys* (not tuples) across the team keeps a
        single mega-hot key on one worker — correct results first, with
        balancing limited to the key granularity.  Vectorised per
        primary: two hash passes per occupied shard, not per key.
        """
        primaries = shard_of_keys(keys, self.primaries)
        placed = np.empty(len(keys), dtype=np.int64)
        for primary in np.unique(primaries):
            team = self._teams[primary]
            mask = primaries == primary
            if len(team) == 1:
                placed[mask] = team[0]
            else:
                lanes = shard_of_keys(keys[mask], len(team),
                                      seed=self.TEAM_SEED)
                placed[mask] = np.asarray(team, dtype=np.int64)[lanes]
        return placed

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
