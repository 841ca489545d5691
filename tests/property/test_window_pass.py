"""The lane-aware window pass against the per-shard path it replaces.

A fleet on the fast engine runs every window as one
:func:`~repro.core.fastpath.run_lanes` call over the lanes
:meth:`WindowRoute.lanes` assigns, instead of ``route.split`` plus one
``run_fast`` per shard.  The per-shard path stays in the tree, so it is
the oracle: every worker must get the same ``(tuples, cycles)`` — and
the same plans and reschedules — in the same split order.  For an
order-free kernel (HISTO, HLL, PageRank) the first outcome's result
must equal the per-shard results folded together; for heavy hitters,
whose window goes whole to one worker, the one outcome must carry its
shard's hitter dict, equal in content and insertion order, and for DP
a run whose answer is its own shard's partitions, pickle for pickle.

The epoch model (``skew_handling``) is order-sensitive, so each shard's
destinations must reach it in the shard's own order, its lane's stream
order.  The spy below records the arrays both paths feed it and
compares them element for element.
"""

import dataclasses
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.heavy_hitter import HeavyHitterKernel
from repro.apps.histo import HistogramKernel
from repro.apps.hyperloglog import HyperLogLogKernel
from repro.apps.pagerank import PageRankKernel
from repro.apps.partition import PartitionKernel
from repro.core.config import ArchitectureConfig
from repro.core.fastpath import run_fast, run_lanes
from repro.core.profiler import SchedulingPlan, greedy_secpe_plan
from repro.obs import TraceCollector
from repro.obs import events as trace_events
from repro.perf.epoch import EpochModel
from repro.runtime.session import StreamingSession
from repro.service.balancer import SkewAwareBalancer, shard_of_keys
from repro.service.jobs import kernel_for
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkItem, WorkerPool
from repro.workloads.tuples import TupleBatch
from repro.workloads.zipf import ZipfGenerator

#: PageRank's vertices: its windows' keys and values are taken modulo.
VERTICES = 1 << 12


def pagerank(pripes):
    kernel = PageRankKernel(VERTICES, pripes=pripes)
    kernel.set_contributions(
        np.random.default_rng(2).integers(0, 1 << 20, VERTICES))
    return kernel


KERNELS = {
    "histo": lambda pripes: HistogramKernel(bins=256, pripes=pripes),
    "hll": lambda pripes: HyperLogLogKernel(precision=8, pripes=pripes),
    "pagerank": pagerank,
}

#: Heavy hitters at the serving default, and on sketches narrow enough
#: that keys reach the threshold through collisions (the replay).
KEYED_KERNELS = {
    "hhd": lambda pripes: HeavyHitterKernel(pripes=pripes),
    "hhd_narrow": lambda pripes: HeavyHitterKernel(
        width=4, threshold=8, pripes=pripes),
}


def zipf_window(alpha, universe, seed, tuples):
    """A Zipf window whose keys and values are vertices of the graph."""
    batch = ZipfGenerator(alpha=alpha, universe=universe,
                          seed=seed).generate(tuples)
    return TupleBatch(batch.keys, batch.values % VERTICES,
                      batch.tuple_bytes)


@st.composite
def windows(draw, by_key=None):
    """``(batch, route, config)``: a Zipf window (some above the
    balancer's profiling sample, so an observed one is subsampled), a
    fleet of K = 1..6 under a greedy plan of a random histogram, a
    by-key (one-worker) or tuple route (drawn when ``by_key`` is None)
    for a window index that may be absent, and a pipeline with or
    without on-chip SecPEs."""
    batch = zipf_window(
        alpha=draw(st.sampled_from([0.0, 0.8, 1.5, 2.5])),
        universe=draw(st.sampled_from([16, VERTICES])),
        seed=draw(st.integers(0, 1 << 16)),
        tuples=draw(st.integers(1, 2_500)
                    | st.integers(SkewAwareBalancer.PROFILE_SAMPLE + 1,
                                  6_000)))
    workers = draw(st.integers(1, 6))
    balancer = SkewAwareBalancer(
        workers, secondaries=draw(st.integers(0, workers - 1)))
    if balancer.secondaries:
        histogram = draw(st.lists(st.integers(0, 1_000),
                                  min_size=balancer.primaries,
                                  max_size=balancer.primaries))
        balancer.apply_plan(greedy_secpe_plan(
            histogram, balancer.secondaries, balancer.primaries))
    if draw(st.booleans()):
        balancer.observe(batch.keys)  # the memoised ids route it
    route = balancer.route(
        by_key=draw(st.booleans()) if by_key is None else by_key,
        window_index=draw(st.none() | st.integers(0, 20)))
    config = ArchitectureConfig(secpes=draw(st.sampled_from([0, 4])))
    return batch, route, config


@contextmanager
def epoch_inputs():
    """Every destination array the epoch model is run on, in order."""
    seen = []
    run = EpochModel.run

    def spy(self, route_ids):
        seen.append(np.array(route_ids, copy=True))
        return run(self, route_ids)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EpochModel, "run", spy)
        yield seen


def per_shard(kernel, config, batch, route):
    """The oracle: ``split``, then one ``run_fast`` per shard."""
    outcomes = [(worker, run_fast(config, kernel, shard))
                for worker, shard in route.split(batch).items()]
    merged = None
    for _, outcome in outcomes:
        merged = (outcome.result.copy() if merged is None
                  else kernel.combine_results(merged, outcome.result))
    return outcomes, merged


def one_pass(kernel, config, batch, route):
    shards = run_lanes(config, kernel, batch, route.lanes(batch))
    return [worker for worker, _ in shards], [outcome for _, outcome in shards]


def shape(outcome):
    return (outcome.tuples, outcome.cycles, outcome.reschedules,
            [plan.pairs for plan in outcome.plans])


@pytest.mark.parametrize("app", sorted(KERNELS))
@settings(deadline=None, max_examples=60)
@given(window=windows())
def test_one_pass_matches_split_plus_run_fast(app, window):
    batch, route, config = window
    kernel = KERNELS[app](config.pripes)
    assert kernel.order_free

    with epoch_inputs() as fed_per_shard:
        expected, merged = per_shard(kernel, config, batch, route)
    with epoch_inputs() as fed_one_pass:
        workers, outcomes = one_pass(kernel, config, batch, route)

    assert workers == [worker for worker, _ in expected]
    assert [shape(outcome) for outcome in outcomes] \
        == [shape(outcome) for _, outcome in expected]
    assert [outcome.pe_tuple_counts for outcome in outcomes] \
        == [outcome.pe_tuple_counts for _, outcome in expected]
    # The window's result rides on the first shard only.
    assert outcomes[0].result.dtype == merged.dtype
    assert np.array_equal(outcomes[0].result, merged)
    assert all(outcome.result is None for outcome in outcomes[1:])
    # Each shard's destinations, in the shard's own order.
    assert len(fed_one_pass) == len(fed_per_shard)
    for ours, theirs in zip(fed_one_pass, fed_per_shard):
        assert np.array_equal(ours, theirs)


def own_results(kernel, config, batch, route):
    """Run a window whose every worker keeps its own result both ways,
    check what both give alike — the workers in split order, each
    shard's shape and PE loads, and the epoch model's inputs — and
    return the per-shard results: the pass's, then the oracle's."""
    with epoch_inputs() as fed_per_shard:
        expected = [(worker, run_fast(config, kernel, shard))
                    for worker, shard in route.split(batch).items()]
    with epoch_inputs() as fed_one_pass:
        workers, outcomes = one_pass(kernel, config, batch, route)

    assert workers == [worker for worker, _ in expected]
    assert [shape(outcome) for outcome in outcomes] \
        == [shape(outcome) for _, outcome in expected]
    assert [outcome.pe_tuple_counts for outcome in outcomes] \
        == [outcome.pe_tuple_counts for _, outcome in expected]
    assert len(fed_one_pass) == len(fed_per_shard)
    for ours, theirs in zip(fed_one_pass, fed_per_shard):
        assert np.array_equal(ours, theirs)
    return ([outcome.result for outcome in outcomes],
            [outcome.result for _, outcome in expected])


@pytest.mark.parametrize("app", sorted(KEYED_KERNELS))
@settings(deadline=None, max_examples=100)
@given(window=windows(by_key=True))
def test_keyed_pass_matches_split_plus_run_fast(app, window):
    batch, route, config = window
    kernel = KEYED_KERNELS[app](config.pripes)
    assert kernel.decomposable and not kernel.order_free

    # The window goes whole to one worker (window_index % K).
    (team,) = route.teams
    assert len(team) == 1
    ours, theirs = own_results(kernel, config, batch, route)
    # The shard's hitters, inserted in the same order.
    assert [list(result.items()) for result in ours] \
        == [list(result.items()) for result in theirs]
    assert len(ours) == 1


@settings(deadline=None, max_examples=60)
@given(window=windows())
def test_partition_pass_matches_split_plus_run_fast(window):
    batch, route, config = window
    kernel = PartitionKernel(pripes=config.pripes)
    assert not kernel.decomposable

    ours, theirs = own_results(kernel, config, batch, route)
    # Each shard's own run answers its own partitions: the same
    # chunks, keys and order.
    assert [pickle.dumps(kernel.answer(result)) for result in ours] \
        == [pickle.dumps(result) for result in theirs]


@pytest.mark.parametrize("by_key", [False, True])
def test_lanes_cover_the_window_once(by_key):
    balancer = SkewAwareBalancer(5, secondaries=2)
    batch = ZipfGenerator(alpha=2.0, universe=64, seed=1).generate(1_000)
    balancer.observe(batch.keys)
    balancer.apply_plan(greedy_secpe_plan(balancer.last_histogram, 2, 3))
    route = balancer.route(by_key=by_key, window_index=7)
    if by_key:  # the whole window on worker 7 % 5
        assert route.teams == ((2,),)
    lanes = route.lanes(batch)
    lane_of = lanes.cells(0, 1)  # each tuple's lane
    split = route.split(batch)
    sizes = np.bincount(lane_of, minlength=route.lane_count)
    shards = lanes.shards(sizes)
    assert [[worker, sizes[worker]] for worker in shards] \
        == [[worker, len(shard)] for worker, shard in split.items()]
    assert sum(sizes[shards]) == len(batch)
    for worker, shard in zip(shards, split.values()):
        # A shard is its lane's tuples, in stream order.
        chosen = (lane_of == worker).nonzero()[0]
        assert np.array_equal(shard.keys, batch.keys[chosen])
        assert np.array_equal(shard.values, batch.values[chosen])


def test_each_lane_reaches_the_epoch_model_in_stream_order():
    # K = 4, helper 3 on shard 0: shard 0's tuples alternate between
    # lanes 0 and 3.  Each shard is one lane, and the epoch model sees
    # its destinations in stream order, shard after shard in split
    # order, team by team: the primary, then its helper.
    balancer = SkewAwareBalancer(4, secondaries=1)
    balancer.apply_plan(SchedulingPlan(pairs=[(3, 0)]))
    route = balancer.route()
    batch = zipf_window(alpha=1.2, universe=1 << 10, seed=3, tuples=3_000)
    lane_of = route.lanes(batch).cells(0, 1)  # each tuple's lane
    config = ArchitectureConfig(secpes=4)
    kernel = KERNELS["histo"](config.pripes)

    with epoch_inputs() as fed:
        workers, _ = one_pass(kernel, config, batch, route)
    assert workers == list(route.split(batch)) == [0, 3, 1, 2]
    destinations = kernel.route_array(batch.keys)
    assert len(fed) == len(workers)
    for worker, ours in zip(workers, fed):
        assert np.array_equal(ours, destinations[lane_of == worker])


def window_of_lanes(route, lanes, tuples=1_500, seed=6):
    """A window whose tuples take only ``lanes`` under ``route``, a
    route of single-worker teams: Zipf keys, kept where the shard id
    picks one."""
    keys = ZipfGenerator(alpha=1.1, universe=1 << 12,
                         seed=seed).generate(4 * tuples).keys
    lane_of = shard_of_keys(keys, len(route.teams))
    keys = keys[np.isin(lane_of, lanes)][:tuples]
    return TupleBatch(keys, (keys % VERTICES).astype(np.int64))


def traced_window_shards(app, batch, route):
    """The ``job.window`` shards an inline pool traces for ``batch``,
    run as one pass (no shard is processed on its own)."""
    config = ArchitectureConfig()
    tracer = TraceCollector(enabled=True)
    pool = WorkerPool(route.lane_count,
                      lambda job_id: StreamingSession(
                          config=config, kernel=kernel_for(app, 16),
                          engine="fast"),
                      ServiceMetrics(), tracer=tracer)
    processed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "process",
                      lambda session, shard: processed.append(shard))
        pool.start()
        pool.dispatch_window(WorkItem("job", batch),
                             dataclasses.replace(route, window_index=0))
        pool.stop()
    assert processed == [] and pool.errors("job") == []
    (window,) = tracer.events(trace_events.JOB_WINDOW)
    return window.data["shards"]


def check_split_order(route, batch, workers, apps):
    """The one-pass window of ``batch`` under ``route``: split order
    as named, and, per app, every shard's size, loads and cycles as
    ``run_fast`` gives them, the order-free result on the first
    non-empty shard (or each worker's own state), and the traced
    ``job.window`` shards those of ``Lanes.split``."""
    lanes = route.lanes(batch)
    split = lanes.split(batch)
    assert list(split) == workers
    assert all(len(shard) for shard in split.values())
    sizes = np.bincount(lanes.cells(0, 1), minlength=route.lane_count)
    assert lanes.shards(sizes) == workers
    config = ArchitectureConfig()
    for app in apps:
        kernel = kernel_for(app, config.pripes)
        outcomes = run_lanes(config, kernel, batch, lanes)
        assert [worker for worker, _ in outcomes] == workers
        alone = [run_fast(config, kernel, shard) for shard in split.values()]
        assert [shape(outcome) for _, outcome in outcomes] \
            == [shape(outcome) for outcome in alone]
        assert [outcome.pe_tuple_counts for _, outcome in outcomes] \
            == [outcome.pe_tuple_counts for outcome in alone]
        if kernel.order_free:
            first, *rest = [outcome.result for _, outcome in outcomes]
            assert np.array_equal(first, kernel.golden(batch.keys,
                                                       batch.values))
            assert rest == [None] * len(rest)
        else:
            assert [list(outcome.result.items()) for _, outcome in outcomes] \
                == [list(outcome.result.items()) for outcome in alone]
        assert traced_window_shards(app, batch, route) \
            == [[worker, len(shard)] for worker, shard in split.items()]


def test_lowest_lane_empty():
    # K = 4, no helpers, nothing on lane 0: lane 1 is the first lane
    # with tuples, so its shard leads the split and carries the
    # window's order-free result.
    balancer = SkewAwareBalancer(4, secondaries=0)
    route = balancer.route()
    batch = window_of_lanes(route, [1, 2, 3])
    check_split_order(route, batch, workers=[1, 2, 3],
                      apps=["histo", "hll"])
    # By key, window 6 goes whole to worker 6 % 4: lanes 0 and 1 (and
    # 3) are empty, and the one shard is lane 2's.
    route = balancer.route(by_key=True, window_index=6)
    assert route.teams == ((2,),)
    check_split_order(route, batch, workers=[2], apps=["histo", "hhd"])


def test_highest_lane_empty():
    # K = 4, no helpers, nothing on lane 3: the pass sizes its arrays
    # by the route's lane count, not by the lanes the window fills.
    # Heavy hitters take the default per-worker gather on any route.
    route = SkewAwareBalancer(4, secondaries=0).route()
    assert route.lane_count == 4
    batch = window_of_lanes(route, [0, 1, 2])
    check_split_order(route, batch, workers=[0, 1, 2],
                      apps=["histo", "hhd"])
