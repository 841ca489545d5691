"""Runtime profiler: the Fig. 5 greedy plan, plan invariants, and the
monitor/reschedule path."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.mapper import DETACH
from repro.core.profiler import (
    RESCHEDULE,
    RuntimeProfiler,
    SchedulingPlan,
    greedy_secpe_plan,
)
from repro.sim.channel import Channel


class TestGreedyPlan:
    def test_fig5_style_example(self):
        """Two SecPEs go to the dominant PriPE 2 (its workload is divided
        to one-third), the third goes to the runner-up — the Fig. 4/5
        walkthrough (plan 4->2, 5->2, 6->0)."""
        workloads = [60, 30, 150, 40]
        plan = greedy_secpe_plan(workloads, 3)
        assert plan.pairs == [(4, 2), (5, 2), (6, 0)]

    def test_no_secpes_gives_empty_plan(self):
        assert greedy_secpe_plan([5, 5], 0).pairs == []

    def test_all_on_one_pe(self):
        plan = greedy_secpe_plan([0, 100, 0, 0], 3)
        assert all(pripe == 1 for _, pripe in plan.pairs)

    def test_uniform_spreads_assignments(self):
        plan = greedy_secpe_plan([10, 10, 10, 10], 3)
        targets = [p for _, p in plan.pairs]
        assert len(set(targets)) == 3     # no PriPE helped twice

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            greedy_secpe_plan([1, 2], 1, pripes=3)
        with pytest.raises(ValueError):
            greedy_secpe_plan([1, 2], -1)

    def test_plan_lookups(self):
        plan = SchedulingPlan(pairs=[(4, 2), (5, 2), (6, 0)])
        assert plan.pripe_of(6) == 0
        assert plan.pripe_of(9) is None


@given(
    workloads=st.lists(st.integers(min_value=0, max_value=10_000),
                       min_size=2, max_size=16),
    data=st.data(),
)
def test_property_greedy_plan_invariants(workloads, data):
    """Every SecPE is assigned exactly once, ids are sequential from M,
    and the plan minimises the maximum effective load greedily: after
    planning, no reassignment of the *last* SecPE strictly improves the
    bottleneck."""
    m = len(workloads)
    secpes = data.draw(st.integers(min_value=0, max_value=m - 1))
    plan = greedy_secpe_plan(workloads, secpes)
    assert len(plan.pairs) == secpes
    assert [s for s, _ in plan.pairs] == list(range(m, m + secpes))
    attached = np.zeros(m)
    for _, p in plan.pairs:
        attached[p] += 1
    base = np.asarray(workloads, dtype=float)
    eff = base / (1 + attached)
    if secpes:
        last_secpe, last_target = plan.pairs[-1]
        bottleneck = eff.max()
        for alternative in range(m):
            if alternative == last_target:
                continue
            trial = attached.copy()
            trial[last_target] -= 1
            trial[alternative] += 1
            trial_eff = base / (1 + trial)
            assert trial_eff.max() >= bottleneck - 1e-9


class ProfilerHarness:
    """Wires a profiler to in-memory channels for direct driving."""

    def __init__(self, pripes=4, secpes=3, lanes=2, profiling_cycles=4,
                 monitor_window=8, threshold=0.5):
        self.stats = [Channel(f"s{i}", capacity=64) for i in range(lanes)]
        self.plans = [Channel(f"p{i}", capacity=16) for i in range(lanes)]
        self.merger = Channel("merger", capacity=16)
        self.host = Channel("host", capacity=16)
        self.profiler = RuntimeProfiler(
            "prof", pripes, secpes, self.stats, self.plans, self.merger,
            self.host, profiling_cycles=profiling_cycles,
            monitor_window=monitor_window, reschedule_threshold=threshold,
        )

    def commit(self):
        for ch in self.stats + self.plans + [self.merger, self.host]:
            ch.commit()

    def feed(self, pripe_ids):
        for i, pid in enumerate(pripe_ids):
            self.stats[i % len(self.stats)].write(pid)


class TestProfilerPhases:
    def test_profiling_then_plan_emission(self):
        h = ProfilerHarness(profiling_cycles=3)
        # Feed PriPE 2 heavily during the window.
        for cycle in range(3):
            h.feed([2, 2])
            h.commit()
            h.profiler.tick(cycle)
        # Window over: plan generated and sent to the merger.
        h.commit()
        assert h.merger.can_read()
        plan = h.merger.read()
        assert all(p == 2 for _, p in plan.pairs)
        # Pairs now stream out one per cycle to every mapper.
        for cycle in range(3, 6):
            h.profiler.tick(cycle)
            h.commit()
        received = []
        while h.plans[0].can_read():
            received.append(h.plans[0].read())
        assert received == plan.pairs
        assert h.plans[1].total_read + len(list(h.plans[1])) == len(plan.pairs)

    def test_reschedule_on_throughput_drop(self):
        h = ProfilerHarness(profiling_cycles=2, monitor_window=4,
                            threshold=0.5)
        cycle = 0
        # Profile + emit (3 secpes -> 3 emission cycles + transition).
        for _ in range(8):
            h.feed([0, 1])
            h.commit()
            h.profiler.tick(cycle)
            cycle += 1
        # Full-rate monitoring windows to set the peak.
        for _ in range(8):
            h.feed([0, 1])
            h.commit()
            h.profiler.tick(cycle)
            cycle += 1
        # Starve the stats channels: throughput collapses.
        for _ in range(12):
            h.commit()
            h.profiler.tick(cycle)
            cycle += 1
            if h.profiler.done:
                break
        assert h.profiler.reschedules_triggered == 1
        assert h.profiler.done
        h.commit()
        # Detach messages and host notification went out.
        plan_msgs = list(h.plans[0])
        assert DETACH in plan_msgs
        assert DETACH in list(h.merger)
        assert RESCHEDULE in list(h.host)

    def test_threshold_zero_never_reschedules(self):
        h = ProfilerHarness(profiling_cycles=2, monitor_window=4,
                            threshold=0.0)
        cycle = 0
        for _ in range(10):
            h.feed([0, 1])
            h.commit()
            h.profiler.tick(cycle)
            cycle += 1
        for _ in range(20):   # starvation would trigger if enabled
            h.commit()
            h.profiler.tick(cycle)
            cycle += 1
        assert h.profiler.reschedules_triggered == 0
        assert not h.profiler.done

    def test_restart_resets_phase_and_histograms(self):
        h = ProfilerHarness(profiling_cycles=2)
        # Feed exactly the profiling window so no stale stats remain.
        for cycle in range(2):
            h.feed([3, 3])
            h.commit()
            h.profiler.tick(cycle)
        h.commit()
        h.profiler.tick(2)                 # emission
        first_plan = h.profiler.current_plan
        assert first_plan is not None
        assert all(p == 3 for _, p in first_plan.pairs)
        h.profiler.restart()
        assert h.profiler.current_plan is None
        assert not h.profiler.done
        # A fresh window counts from zero and can produce a new plan.
        for cycle in range(3, 12):
            h.feed([1, 1])
            h.commit()
            h.profiler.tick(cycle)
            if h.profiler.current_plan is not None:
                break
        assert all(p == 1 for _, p in h.profiler.current_plan.pairs)

    def test_finishes_when_stats_channels_close(self):
        h = ProfilerHarness(profiling_cycles=2)
        for ch in h.stats:
            ch.close()
        h.commit()
        h.profiler.tick(0)
        assert h.profiler.done

    def test_requires_matching_channel_counts(self):
        with pytest.raises(ValueError):
            RuntimeProfiler(
                "p", 4, 1, [Channel("s0")], [],
                Channel("m"), Channel("h"),
            )


def argmax_plan(workloads, secpes):
    """Fig. 5 in array arithmetic: each round recomputes every PriPE's
    workload shared evenly with its attached SecPEs and helps the first
    largest (``np.argmax``; a NaN workload is that first pick)."""
    base = np.asarray(workloads, dtype=np.float64)
    attached = np.zeros(len(base), dtype=np.int64)
    pairs = []
    for secpe in range(len(base), len(base) + secpes):
        target = int(np.argmax(base / (1 + attached)))
        pairs.append((secpe, target))
        attached[target] += 1
    return pairs


@given(
    workloads=st.lists(st.one_of(st.integers(min_value=0, max_value=4),
                                 st.integers(min_value=0, max_value=10_000),
                                 st.floats(allow_nan=True,
                                           allow_infinity=True)),
                       min_size=1, max_size=32),
    secpes=st.integers(min_value=0, max_value=40),
)
@example(workloads=[4, 4, 2, 4], secpes=5)
@example(workloads=[1.0, float("nan"), 3.0, float("nan")], secpes=3)
@example(workloads=[0.0, -0.0, float("inf"), float("inf")], secpes=4)
def test_property_greedy_plan_matches_the_argmax_oracle(workloads, secpes):
    """Same pairs as the array form, ties (small counts, equal floats,
    signed zeros, infinities) and NaNs included; the workloads are kept
    as the float64 array they were planned from."""
    plan = greedy_secpe_plan(workloads, secpes)
    assert plan.pairs == argmax_plan(workloads, secpes)
    assert plan.workloads.dtype == np.float64
    assert np.array_equal(plan.workloads, np.asarray(workloads, float),
                          equal_nan=True)
