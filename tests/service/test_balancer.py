"""Fleet balancers: sharding invariants and the greedy helper plan."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.service.balancer as balancer_module
from repro.apps.histo import HistogramKernel
from repro.control import AdaptiveController, ControlPolicy
from repro.core.profiler import SchedulingPlan, greedy_secpe_plan
from repro.hashing.multiply_shift import multiply_shift_range
from repro.hashing.murmur3 import murmur3_32_array
from repro.service import ServiceMetrics, StreamService
from repro.service.balancer import (
    SkewAwareBalancer,
    WindowRoute,
    make_balancer,
    shard_of_keys,
)
from repro.workloads.streams import chunk_stream
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator


def multiset(batch: TupleBatch):
    return sorted(zip(batch.keys.tolist(), batch.values.tolist()))


def replan(balancer, keys):
    """One window under the reflexive control policy: observe ``keys``
    and adopt the greedy plan of their sample."""
    AdaptiveController(balancer, None, ServiceMetrics(),
                       policy=ControlPolicy(reflexive=True)).on_window(
        keys, len(keys))


def split_conserves_tuples(balancer, batch):
    parts = balancer.split(batch)
    combined = []
    for part in parts.values():
        combined.extend(multiset(part))
    assert sorted(combined) == multiset(batch)
    return parts


class TestSharding:
    def test_shards_cover_range_and_are_deterministic(self):
        keys = np.arange(10_000, dtype=np.uint64)
        shards = shard_of_keys(keys, 7)
        assert shards.min() >= 0 and shards.max() < 7
        assert np.array_equal(shards, shard_of_keys(keys, 7))

    def test_sharding_independent_of_low_key_bits(self):
        """Fleet sharding must not alias the kernels' `key % M` routing:
        consecutive keys (identical high bits) should spread widely."""
        keys = np.arange(64, dtype=np.uint64)
        assert len(np.unique(shard_of_keys(keys, 4))) == 4


class TestRoundRobin:
    """Round-robin sharding is the skew-aware balancer with no
    secondaries: every worker a primary, the helper plan empty."""

    def test_split_covers_all_workers_on_uniform_keys(self):
        balancer = make_balancer("roundrobin", 4)
        batch = ZipfGenerator(alpha=0.0, seed=3).generate(4_000)
        parts = split_conserves_tuples(balancer, batch)
        assert set(parts) == {0, 1, 2, 3}

    @pytest.mark.parametrize("by_key", [False, True])
    def test_static_assignment_keeps_keys_on_one_worker(self, by_key):
        balancer = make_balancer("roundrobin", 4)
        batch = TupleBatch.from_keys(
            np.full(100, 0xABCD, dtype=np.uint64))
        parts = balancer.split(batch, by_key=by_key)
        assert len(parts) == 1  # one key -> exactly one worker

    @pytest.mark.parametrize("by_key", [False, True])
    def test_shard_s_always_goes_to_worker_s(self, by_key):
        """Profiling skewed windows never moves a range: worker ``s``
        gets exactly the tuples of shard ``s``, in stream order."""
        balancer = make_balancer("roundrobin", 4)
        for seed in range(3):
            batch = ZipfGenerator(alpha=2.0, seed=seed).generate(3_000)
            replan(balancer, batch.keys)
            parts = balancer.split(batch, by_key=by_key)
            shards = shard_of_keys(batch.keys, 4)
            assert list(parts) == sorted(set(shards.tolist()))
            for worker, part in parts.items():
                mask = shards == worker
                assert np.array_equal(part.keys, batch.keys[mask])
                assert np.array_equal(part.values, batch.values[mask])
        assert balancer.rebalances == 0


class TestSkewAware:
    def test_defaults_reserve_secondaries(self):
        balancer = SkewAwareBalancer(8)
        assert balancer.primaries == 6
        assert balancer.secondaries == 2
        with pytest.raises(ValueError, match="at least one primary"):
            SkewAwareBalancer(4, secondaries=4)

    def test_single_worker_degenerates_to_static(self):
        balancer = SkewAwareBalancer(1)
        assert balancer.primaries == 1 and balancer.secondaries == 0
        batch = ZipfGenerator(alpha=2.0, seed=1).generate(1_000)
        replan(balancer, batch.keys)
        parts = balancer.split(batch)
        assert list(parts) == [0] and len(parts[0]) == 1_000

    def test_by_key_split_keeps_keys_whole(self):
        balancer = SkewAwareBalancer(4, secondaries=2)
        batch = ZipfGenerator(alpha=1.5, seed=6).generate(4_000)
        replan(balancer, batch.keys)
        parts = split_conserves_tuples(balancer, batch)  # tuple mode
        parts = balancer.split(batch, by_key=True)
        owners = {}
        for worker, part in parts.items():
            for key in np.unique(part.keys):
                assert owners.setdefault(int(key), worker) == worker

    def test_plan_attaches_helpers_to_hot_shard(self):
        balancer = SkewAwareBalancer(4, secondaries=1)
        hot = np.full(9_000, 0x51, dtype=np.uint64)
        cold = np.arange(1_000, dtype=np.uint64)
        keys = np.concatenate([hot, cold])
        replan(balancer, keys)
        hot_primary = int(shard_of_keys(hot[:1], balancer.primaries)[0])
        team = balancer.team_of(hot_primary)
        assert team[0] == hot_primary
        assert balancer.primaries in team  # secondary worker id = M

    def test_split_round_robins_hot_shard_across_team(self):
        balancer = SkewAwareBalancer(4, secondaries=1)
        hot = TupleBatch.from_keys(np.full(1_000, 0x51, dtype=np.uint64))
        replan(balancer, hot.keys)
        parts = split_conserves_tuples(balancer, hot)
        assert len(parts) == 2  # primary + its helper
        sizes = sorted(len(part) for part in parts.values())
        assert sizes == [500, 500]

    def test_rebalance_counted_when_hot_shard_moves(self):
        balancer = SkewAwareBalancer(6, secondaries=2)
        streams = [
            ZipfGenerator(alpha=3.0, seed=seed).generate(4_000).keys
            for seed in (1, 2, 3)
        ]
        for keys in streams:
            replan(balancer, keys)
        # Fresh hot keys land in fresh shards; at least one plan change.
        assert balancer.rebalances >= 1

    def test_identical_samples_yield_stable_plan(self):
        balancer = SkewAwareBalancer(4, secondaries=1)
        keys = ZipfGenerator(alpha=1.5, seed=9).generate(8_000).keys
        replan(balancer, keys)
        first = balancer.plan.pairs
        replan(balancer, keys)
        assert balancer.plan.pairs == first
        assert balancer.rebalances == 0


class TestProfileSampling:
    def test_sample_is_bounded_by_profile_sample(self):
        balancer = SkewAwareBalancer(4)
        keys = np.arange(10_000, dtype=np.uint64)
        assert len(balancer.sample_keys(keys)) == 4096
        # Small segments are profiled whole.
        assert len(balancer.sample_keys(keys[:100])) == 100

    def test_sampling_is_seeded_and_reproducible(self):
        keys = ZipfGenerator(alpha=1.5, seed=3).generate(50_000).keys
        plans = []
        for _ in range(2):
            balancer = SkewAwareBalancer(4)
            replan(balancer, keys)
            plans.append(balancer.plan.pairs)
        assert plans[0] == plans[1]

    def test_subsample_sees_past_the_segment_head(self):
        """Truncation would profile only the (cold) head; the seeded
        subsample must catch a hot key that lives in the tail."""
        cold = np.arange(8_192, dtype=np.uint64)
        hot = np.full(32_768, 0x51, dtype=np.uint64)
        keys = np.concatenate([cold, hot])  # hot mass entirely in tail
        balancer = SkewAwareBalancer(4, secondaries=1)
        replan(balancer, keys)
        hot_primary = int(shard_of_keys(hot[:1], balancer.primaries)[0])
        assert balancer.plan.pairs[0][1] == hot_primary


@pytest.fixture
def hashed(monkeypatch):
    """Length of every key array the balancer module hashes."""
    calls = []
    hash_range = balancer_module.multiply_shift_range

    def counting(keys, *args, **kwargs):
        calls.append(len(keys))
        return hash_range(keys, *args, **kwargs)

    monkeypatch.setattr(balancer_module, "multiply_shift_range", counting)
    return calls


def reference_observe(twin: SkewAwareBalancer, keys) -> None:
    """Profile as before the hash hand-over: hash the *sample*."""
    histogram = np.bincount(
        shard_of_keys(twin.sample_keys(keys), twin.primaries),
        minlength=twin.primaries)
    twin.last_histogram = histogram
    twin.apply_plan(greedy_secpe_plan(histogram, twin.secondaries,
                                      twin.primaries))


def reference_split(balancer: SkewAwareBalancer, batch: TupleBatch):
    """``shard_of_keys`` routing under the balancer's current teams."""
    shards = shard_of_keys(batch.keys, balancer.primaries)
    out = {}
    for primary in range(balancer.primaries):
        positions = np.nonzero(shards == primary)[0]
        team = balancer.team_of(primary)
        for lane, worker in enumerate(team):
            chosen = positions[lane::len(team)]
            if chosen.size:
                out[worker] = multiset(TupleBatch(batch.keys[chosen],
                                                  batch.values[chosen]))
    return out


def routed(parts):
    return {worker: multiset(part) for worker, part in parts.items()}


def numbered(alpha, tuples, seed):
    """A Zipf batch whose values number the tuples (routing visible)."""
    keys = ZipfGenerator(alpha=alpha, seed=seed).generate(tuples).keys
    return TupleBatch(keys, np.arange(tuples, dtype=np.int64))


#: Window sizes either side of ``PROFILE_SAMPLE`` (4096).
BELOW_SAMPLE, ABOVE_SAMPLE = 3_000, 20_000


class TestHashOnce:
    """``observe`` hashes the window, ``split`` of the same array reuses
    the hashes; every other ``split`` routes by ``shard_of_keys``."""

    @pytest.mark.parametrize("tuples", [BELOW_SAMPLE, ABOVE_SAMPLE])
    def test_observe_then_split_hashes_the_window_once(self, hashed,
                                                       tuples):
        balancer = SkewAwareBalancer(4)
        batch = numbered(1.5, tuples, seed=3)
        replan(balancer, batch.keys)
        assert hashed == [tuples]
        expected = reference_split(balancer, batch)
        del hashed[:]
        assert routed(balancer.split(batch)) == expected
        assert hashed == []

    # 1.5625 tuples/ns at line rate: 3 125- and 12 500-tuple windows.
    @pytest.mark.parametrize("window_seconds", [2e-6, 8e-6])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_service_hashes_each_tuple_once(self, hashed, adaptive,
                                            window_seconds):
        batch = ZipfGenerator(alpha=1.2, seed=9).generate(50_000)
        service = StreamService(workers=4, adaptive=adaptive)
        try:
            job_id = service.submit("histo", chunk_stream(batch, 4_000),
                                    window_seconds=window_seconds)
            service.run()
            result = service.result(job_id)
        finally:
            service.shutdown()
        assert result.tuples == len(batch)
        assert sum(hashed) == len(batch)
        assert len(hashed) == service.metrics.windows_closed

    @pytest.mark.parametrize("alphas", [(0.0,) * 6,
                                        (1.5, 1.5, 2.0, 0.5, 2.0, 1.1)])
    def test_profile_equals_hashing_the_sample(self, alphas):
        """Same histogram, plan sequence, rebalance count and RNG state
        as hashing ``sample_keys(keys)``, window after window."""
        balancer, twin = SkewAwareBalancer(8), SkewAwareBalancer(8)
        for seed, alpha in enumerate(alphas):
            tuples = ABOVE_SAMPLE if seed % 2 else BELOW_SAMPLE
            batch = numbered(alpha, tuples, seed=seed)
            replan(balancer, batch.keys)
            reference_observe(twin, batch.keys)
            assert np.array_equal(balancer.last_histogram,
                                  twin.last_histogram)
            assert balancer.last_histogram.dtype == np.int64
            assert balancer.plan.pairs == twin.plan.pairs
            assert balancer.rebalances == twin.rebalances
            assert balancer._rng.bit_generator.state \
                == twin._rng.bit_generator.state
            assert routed(balancer.split(batch)) \
                == reference_split(twin, batch)

    def test_reconfigure_between_observe_and_split_uses_new_modulus(
            self, hashed):
        balancer = SkewAwareBalancer(4)
        batch = numbered(1.0, BELOW_SAMPLE, seed=4)
        balancer.observe(batch.keys)
        balancer.reconfigure(7, secondaries=2)
        parts = routed(balancer.split(batch))
        # observe's shard ids were taken modulo 3 primaries: re-sharded.
        assert hashed == [BELOW_SAMPLE] * 2
        assert parts == reference_split(balancer, batch)
        assert set(parts) == set(range(5))  # five primaries, no plan

    def test_only_the_observed_array_reuses_the_hashes(self, hashed):
        balancer = SkewAwareBalancer(4)
        observed = numbered(1.5, BELOW_SAMPLE, seed=5)
        twin = TupleBatch(observed.keys.copy(), observed.values)
        other = numbered(0.0, BELOW_SAMPLE, seed=6)
        replan(balancer, observed.keys)
        batches = (twin, other, observed, observed)
        expected = [reference_split(balancer, batch) for batch in batches]
        del hashed[:]
        # The hand-over is for one split of one array: a different
        # array is hashed, even one with equal keys, and so is the
        # observed one afterwards — twice if it is split twice.
        assert [routed(balancer.split(batch))
                for batch in batches] == expected
        assert hashed == [BELOW_SAMPLE] * 4

    def test_split_without_observe_routes_by_shard_of_keys(self, hashed):
        balancer = SkewAwareBalancer(4)
        batch = numbered(1.5, BELOW_SAMPLE, seed=8)
        expected = reference_split(balancer, batch)
        del hashed[:]
        assert routed(balancer.split(batch)) == expected
        assert hashed == [BELOW_SAMPLE]

    def test_one_team_route_hashes_no_key(self, hashed):
        # A route of one team puts every tuple in its one shard: the
        # worker's whole shard, as the pool's per-shard dispatch sends.
        batch = numbered(1.5, BELOW_SAMPLE, seed=10)
        route = WindowRoute(((2,),), by_key=True)
        split = route.lanes(batch).split(batch)
        assert (route.key_lanes(batch.keys) == 2).all()
        assert hashed == []
        assert list(split) == [2]
        assert np.array_equal(split[2].keys, batch.keys)
        assert np.array_equal(split[2].values, batch.values)

    @pytest.mark.parametrize("tuples", [BELOW_SAMPLE, ABOVE_SAMPLE])
    def test_one_primary_observe_hashes_no_key(self, hashed, tuples):
        # One primary: every shard id is 0, so there is nothing to hash;
        # the sample still counts every key it draws.
        balancer = SkewAwareBalancer(1)
        batch = numbered(1.5, tuples, seed=11)
        balancer.observe(batch.keys)
        assert hashed == []
        assert balancer.last_histogram.tolist() \
            == [min(tuples, SkewAwareBalancer.PROFILE_SAMPLE)]
        assert routed(balancer.split(batch)) == reference_split(balancer,
                                                                batch)
        assert hashed == []

    def test_nothing_keeps_the_window_alive_after_split(self):
        balancer = SkewAwareBalancer(4)
        batch = numbered(1.5, BELOW_SAMPLE, seed=9)
        alive = weakref.ref(batch.keys)
        replan(balancer, batch.keys)
        parts = balancer.split(batch)
        del batch
        gc.collect()
        assert alive() is None
        assert sum(len(part) for part in parts.values()) == BELOW_SAMPLE


def expected_workers(balancer: SkewAwareBalancer, keys) -> np.ndarray:
    """Each tuple's worker: its ``shard_of_keys`` shard, then the
    round-robin lane of that shard's team."""
    shards = shard_of_keys(keys, balancer.primaries)
    workers = np.empty(len(keys), dtype=np.int64)
    for primary in range(balancer.primaries):
        positions = np.nonzero(shards == primary)[0]
        team = balancer.team_of(primary)
        workers[positions] = [team[lane % len(team)]
                              for lane in range(positions.size)]
    return workers


class TestShardRouting:
    """A window's shard ids, memoised by ``observe`` or taken by
    ``split``, route every tuple exactly as ``shard_of_keys`` does."""

    @settings(deadline=None, max_examples=30)
    @given(keys=st.lists(st.one_of(st.integers(0, 15),
                                   st.integers(0, (1 << 64) - 1)),
                         min_size=1, max_size=300),
           shape=st.sampled_from([(2, 1), (4, 1), (5, 1), (6, 2)]),
           observed=st.booleans())
    def test_each_tuple_goes_to_its_shard_and_team_lane(self, keys, shape,
                                                        observed):
        """For M = 1, 3, 4 primaries (and M = 4 with two helpers), a
        tuple's worker is its ``shard_of_keys`` shard's team lane, in
        stream order, whether or not the window was observed first."""
        workers, secondaries = shape
        balancer = SkewAwareBalancer(workers, secondaries=secondaries)
        batch = TupleBatch(np.array(keys, dtype=np.uint64),
                           np.arange(len(keys), dtype=np.int64))
        if observed:
            replan(balancer, batch.keys)
        expected = expected_workers(balancer, batch.keys)
        parts = balancer.split(batch)
        assert sum(len(part) for part in parts.values()) == len(keys)
        for worker, part in parts.items():
            assert np.array_equal(part.values,
                                  np.nonzero(expected == worker)[0])

    def test_shard_of_keys_returns_int64(self):
        keys = np.arange(100, dtype=np.uint64)
        for shards in (1, 3, 4):
            assert shard_of_keys(keys, shards).dtype == np.int64
            assert shard_of_keys(keys[:0], shards).dtype == np.int64

    def test_balances_like_murmur3_without_aliasing(self):
        """Multiply-shift sharding against murmur3, the hash it replaced
        (kept in ``repro.hashing`` as the reference): (a) on Zipf
        windows its mean max/mean shard load is within 2 % of murmur3's
        on the same keys; over the whole 2^20 key universe, each
        shard's distinct keys (b) spread evenly over HISTO's 16 on-chip
        PEs — the two multiply-shifts do not alias — and (c) over the
        ``TEAM_SEED`` lanes of a 2-4 worker team."""
        for alpha in (0.0, 1.0, 1.2, 1.5, 2.0):
            loads = {"multiply-shift": [], "murmur3": []}
            for seed in range(20):
                keys = ZipfGenerator(alpha=alpha,
                                     seed=seed).generate(20_000).keys
                hashes = murmur3_32_array(keys, 0x51EE7)  # its old seed
                for primaries in (3, 6):
                    for name, shards in (
                            ("multiply-shift",
                             shard_of_keys(keys, primaries)),
                            ("murmur3", hashes % primaries)):
                        counts = np.bincount(shards, minlength=primaries)
                        loads[name].append(counts.max() / counts.mean())
            assert np.mean(loads["multiply-shift"]) \
                <= 1.02 * np.mean(loads["murmur3"]), alpha
        universe = np.arange(1 << 20, dtype=np.uint64)
        pes = HistogramKernel().route_array(universe)
        for primaries in (3, 6):
            shards = shard_of_keys(universe, primaries)
            for shard in range(primaries):
                mine = shards == shard
                counts = np.bincount(pes[mine], minlength=16)
                assert counts.max() <= 1.01 * counts.mean()
                for team in (2, 3, 4):
                    counts = np.bincount(multiply_shift_range(
                        universe[mine], team, SkewAwareBalancer.TEAM_SEED))
                    assert len(counts) == team
                    assert counts.max() <= 1.01 * counts.mean()


def scalar_range(key: int, n: int, multiplier: int) -> int:
    """The fleet hash in Python ints: multiply-shift, then multiply-high
    into ``[0, n)``."""
    return ((key * multiplier) % 2**64 >> 32) * n >> 32


def by_key_worker(balancer: SkewAwareBalancer, key: int) -> int:
    """A by-key tuple's worker, by the scalar hash: its shard's team
    lane that the ``TEAM_SEED`` hash of the key picks."""
    team = balancer.team_of(scalar_range(
        key, balancer.primaries, balancer_module.FLEET_SHARD_SEED))
    return team[scalar_range(key, len(team), SkewAwareBalancer.TEAM_SEED)]


@st.composite
def planned_fleets(draw):
    """A fleet of M = 1, 3 or 4 primaries and a random helper plan."""
    workers, secondaries = draw(st.sampled_from(
        [(1, 0), (2, 1), (4, 1), (5, 1), (6, 2), (7, 3)]))
    primaries = workers - secondaries
    targets = draw(st.lists(st.integers(0, primaries - 1),
                            min_size=secondaries, max_size=secondaries))
    return workers, secondaries, SchedulingPlan(
        pairs=[(primaries + i, t) for i, t in enumerate(targets)])


class TestByKeyRouting:
    """A by-key split is a stateless lane rule: each tuple's worker is a
    function of its key and the plan in force, never of history."""

    @settings(deadline=None, max_examples=30)
    @given(keys=st.lists(st.one_of(st.integers(0, 15),
                                   st.integers(0, (1 << 64) - 1)),
                         min_size=1, max_size=300),
           fleet=planned_fleets(),
           history=planned_fleets(),
           observed=st.booleans())
    def test_each_tuple_goes_to_its_key_hashed_team_lane(
            self, keys, fleet, history, observed):
        workers, secondaries, plan = fleet
        batch = TupleBatch(np.array(keys, dtype=np.uint64),
                           np.arange(len(keys), dtype=np.int64))
        calls = []
        hash_range = balancer_module.multiply_shift_range

        def counting(array, *args, **kwargs):
            calls.append(len(array))
            return hash_range(array, *args, **kwargs)

        balancer = SkewAwareBalancer(workers, secondaries=secondaries)
        balancer.apply_plan(plan)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(balancer_module, "multiply_shift_range",
                          counting)
            if observed:
                balancer.observe(batch.keys)
            parts = balancer.split(batch, by_key=True)
        expected = np.array([by_key_worker(balancer, key) for key in keys])
        assert list(parts) == sorted(parts)
        for worker, part in parts.items():
            # Stream order, nothing lost: the values number the tuples.
            assert np.array_equal(part.values,
                                  np.nonzero(expected == worker)[0])
            assert np.array_equal(part.keys, batch.keys[part.values])
        assert sum(len(part) for part in parts.values()) == len(keys)
        # Every key whole: one worker per key within the split.
        owners = {}
        for worker, part in parts.items():
            for key in part.keys.tolist():
                assert owners.setdefault(key, worker) == worker
        # The window is hashed once (observed or not), unless the
        # fleet has one shard; only the tuples of multi-lane teams are
        # hashed again, for their lane.
        shards = shard_of_keys(batch.keys, balancer.primaries)
        multi_lane = [int(np.count_nonzero(shards == primary))
                      for primary in range(balancer.primaries)
                      if len(balancer.team_of(primary)) > 1]
        once = [len(keys)] if balancer.primaries > 1 else []
        assert calls == once + [n for n in multi_lane if n]
        # History-independent: another plan's split and two reshapes
        # later, the same plan routes exactly as a fresh balancer's.
        h_workers, h_secondaries, h_plan = history
        balancer.reconfigure(h_workers, secondaries=h_secondaries)
        balancer.apply_plan(h_plan)
        balancer.split(batch, by_key=True)
        balancer.reconfigure(workers, secondaries=secondaries)
        balancer.apply_plan(plan)
        assert [(worker, part.values.tolist()) for worker, part
                in balancer.split(batch, by_key=True).items()] \
            == [(worker, part.values.tolist())
                for worker, part in parts.items()]


class TestExternalControl:
    def test_observe_never_changes_plan_or_rebalances(self):
        balancer = SkewAwareBalancer(4)
        keys = ZipfGenerator(alpha=2.0, seed=1).generate(2_000).keys
        balancer.observe(keys)
        assert balancer.plan is None
        assert balancer.last_histogram is not None
        assert balancer.last_histogram.sum() == 2_000
        plan = SchedulingPlan(pairs=[(3, 0)])
        balancer.apply_plan(plan)
        for seed in range(2, 6):
            balancer.observe(
                ZipfGenerator(alpha=3.0, seed=seed).generate(2_000).keys)
        assert balancer.plan is plan
        assert balancer.rebalances == 0

    def test_apply_plan_rebuilds_teams_and_counts_changes(self):
        balancer = SkewAwareBalancer(4, secondaries=1)
        balancer.apply_plan(SchedulingPlan(pairs=[(3, 0)]))
        assert balancer.team_of(0) == [0, 3]
        assert balancer.rebalances == 0  # first plan is not a change
        balancer.apply_plan(SchedulingPlan(pairs=[(3, 2)]))
        assert balancer.team_of(0) == [0]
        assert balancer.team_of(2) == [2, 3]
        assert balancer.rebalances == 1

    def test_apply_plan_with_the_pairs_in_force_changes_nothing(self):
        balancer = SkewAwareBalancer(4, secondaries=1)
        batch = ZipfGenerator(alpha=1.5, seed=4).generate(2_000)
        balancer.apply_plan(SchedulingPlan(pairs=[(3, 2)]))
        balancer.apply_plan(SchedulingPlan(pairs=[(3, 0)]))
        teams = [balancer.team_of(primary) for primary in range(3)]
        before = balancer.split(batch)
        again = SchedulingPlan(pairs=[(3, 0)])
        balancer.apply_plan(again)
        assert balancer.plan is again
        assert balancer.rebalances == 1
        assert [balancer.team_of(primary) for primary in range(3)] == teams
        after = balancer.split(batch)
        assert list(after) == list(before)
        for worker, part in after.items():
            assert np.array_equal(part.keys, before[worker].keys)
            assert np.array_equal(part.values, before[worker].values)

    def test_apply_plan_validates_worker_ids(self):
        balancer = SkewAwareBalancer(4, secondaries=1)
        with pytest.raises(ValueError, match="targets primary"):
            balancer.apply_plan(SchedulingPlan(pairs=[(3, 7)]))
        with pytest.raises(ValueError, match="secondary"):
            balancer.apply_plan(SchedulingPlan(pairs=[(9, 0)]))

    def test_reconfigure_reshapes_and_drops_stale_plan(self):
        balancer = SkewAwareBalancer(4, secondaries=1)
        replan(balancer,
               ZipfGenerator(alpha=2.0, seed=2).generate(2_000).keys)
        assert balancer.plan is not None
        balancer.reconfigure(8)
        assert (balancer.workers, balancer.primaries,
                balancer.secondaries) == (8, 6, 2)
        assert balancer.plan is None
        assert balancer.last_histogram is None
        assert balancer.reconfigurations == 1
        # Explicit primary/secondary conversion at fixed size.
        balancer.reconfigure(8, secondaries=4)
        assert (balancer.primaries, balancer.secondaries) == (4, 4)

    def test_reconfigure_validates_split(self):
        balancer = SkewAwareBalancer(4)
        with pytest.raises(ValueError, match="at least one primary"):
            balancer.reconfigure(4, secondaries=4)


class TestFactory:
    def test_factory_names(self):
        assert isinstance(make_balancer("skew", 4), SkewAwareBalancer)
        roundrobin = make_balancer("roundrobin", 4)
        assert (roundrobin.primaries, roundrobin.secondaries) == (4, 0)
        assert "round-robin sharding (4 static" in roundrobin.describe()
        with pytest.raises(ValueError, match="unknown balancer"):
            make_balancer("magic", 4)
