"""DP's job answer from runs against the fold of per-window partitions.

A fleet folds DP's state, not its answer: each window hands every
worker a *run* (:meth:`PartitionKernel.process_lanes`), runs append in
each worker's session, and :meth:`PartitionKernel.answer` lists the
job's partitions once, at collect.  The oracle is the fold the runs
replace: every window's per-worker partitions from the default
:meth:`KernelSpec.process_lanes` (the exact per-worker gather and
``process_shard``), extended into each worker's lists in window order,
then the workers merged in ascending order as ``WorkerPool.collect``
merges them.  ``process_shard`` is itself the answer of a one-piece
run, so each window's partitions are first pinned to the golden chunks
listed PE-major: the oracle does not rest on ``answer``.  The two must
pickle alike, dict order included: a job's ``result_digest`` sees it.

A run's arrays must own their memory: the window's keys may be a shm
slab view, recycled once the pass returns (``process_shard``'s rule).
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.partition import PartitionKernel
from repro.core.kernel import KernelSpec
from repro.core.profiler import greedy_secpe_plan
from repro.service.balancer import SkewAwareBalancer
from repro.workloads.tuples import TupleBatch


@st.composite
def jobs(draw):
    """``(kernel, balancer, windows)``: a radix width of 4..8 bits on a
    PE count it can feed, a fleet of 1..6 workers, and a few windows,
    each under its own helper plan (or none); windows are small or
    over a tiny key universe, so some lanes stay empty."""
    bits = draw(st.integers(4, 8))
    pripes = draw(st.sampled_from([p for p in (1, 3, 4, 12, 16)
                                   if p <= 1 << bits]))
    workers = draw(st.integers(1, 6))
    balancer = SkewAwareBalancer(
        workers, secondaries=draw(st.integers(0, workers - 1)))
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
        keys = rng.integers(0, draw(st.sampled_from([4, 64, 1 << 64])),
                            draw(st.integers(1, 600)), dtype=np.uint64)
        plan = None
        if balancer.secondaries and draw(st.booleans()):
            plan = greedy_secpe_plan(
                draw(st.lists(st.integers(0, 50),
                              min_size=balancer.primaries,
                              max_size=balancer.primaries)),
                balancer.secondaries, balancer.primaries)
        windows.append((keys, plan))
    return PartitionKernel(bits, pripes), balancer, windows


def own_partitions(kernel, keys):
    """One shard's partitions as the per-window pass listed them, stated
    without :meth:`PartitionKernel.answer`: the golden chunks, PE-major
    as ``collect`` walks the PEs, ascending partition id within a PE."""
    chunks = kernel.golden(keys, np.zeros(keys.size))
    return {part: chunks[part] for part in sorted(
        chunks, key=lambda part: (part % kernel.pripes, part))}


def fold(kernel, sessions, worker, part):
    sessions[worker] = (part if worker not in sessions
                        else kernel.combine_results(sessions[worker], part))


def merged(kernel, sessions):
    """The workers' sessions merged in ascending worker order."""
    total = None
    for worker in sorted(sessions):
        total = (sessions[worker] if total is None
                 else kernel.combine_results(total, sessions[worker]))
    return total


@settings(deadline=None, max_examples=150)
@given(job=jobs())
def test_answer_of_runs_is_the_fold_of_partitions(job):
    kernel, balancer, windows = job
    runs, partitions = {}, {}
    for keys, plan in windows:
        if plan is not None:
            balancer.apply_plan(plan)
        batch = TupleBatch(keys, np.zeros(keys.size, dtype=np.int64))
        lanes = balancer.route().lanes(batch)
        destinations, states = kernel.process_lanes(keys, batch.values,
                                                    lanes)
        expected_destinations, answers = KernelSpec.process_lanes(
            kernel, keys, batch.values, lanes)
        assert np.array_equal(destinations, expected_destinations)
        assert len(states) == lanes.route.lane_count
        for state in states:
            for piece in state:
                assert not any(np.shares_memory(array, keys)
                               for array in piece)
        # Only the shards fold, in split order, as run_lanes folds them.
        for worker, shard in lanes.split(batch).items():
            assert pickle.dumps(answers[worker]) \
                == pickle.dumps(own_partitions(kernel, shard.keys))
            fold(kernel, runs, worker, states[worker])
            fold(kernel, partitions, worker, answers[worker])
        # An empty lane's run answers nothing.
        assert all(kernel.answer(state) == {}
                   for worker, state in enumerate(states)
                   if not sum(piece_keys.size for piece_keys, _ in state))

    answer = kernel.answer(merged(kernel, runs))
    assert pickle.dumps(answer) == pickle.dumps(merged(kernel, partitions))
