"""Epoch-model internals: arrival splitting and queue advancement."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.config import ArchitectureConfig
from repro.core.profiler import SchedulingPlan, greedy_secpe_plan
from repro.perf.epoch import EpochModel


@pytest.fixture
def model():
    return EpochModel(ArchitectureConfig(secpes=15,
                                         reschedule_threshold=0.0))


class TestSplitArrivals:
    def test_identity_without_plan(self, model):
        counts = np.arange(16, dtype=float)
        arrivals = SchedulingPlan(pairs=[]).split_loads(counts, 31)
        assert np.array_equal(arrivals[:16], counts)
        assert arrivals[16:].sum() == 0

    def test_plan_splits_round_robin(self, model):
        counts = np.zeros(16)
        counts[3] = 90.0
        plan = SchedulingPlan(pairs=[(16, 3), (17, 3)])
        arrivals = plan.split_loads(counts, 31)
        assert arrivals[3] == pytest.approx(30.0)
        assert arrivals[16] == pytest.approx(30.0)
        assert arrivals[17] == pytest.approx(30.0)

    @given(st.lists(st.integers(min_value=0, max_value=5_000),
                    min_size=16, max_size=16),
           st.integers(min_value=0, max_value=15))
    def test_property_mass_conserved(self, raw, secpes):
        model = EpochModel(ArchitectureConfig(secpes=15))
        counts = np.asarray(raw, dtype=float)
        plan = greedy_secpe_plan(counts, secpes) if secpes \
            else SchedulingPlan(pairs=[])
        arrivals = plan.split_loads(counts, 31)
        assert arrivals.sum() == pytest.approx(counts.sum())
        assert (arrivals >= 0).all()


class TestAdvance:
    def test_bandwidth_bound_when_balanced(self, model):
        backlog = np.zeros(31)
        arrivals = np.full(31, 100.0)
        cycles = model._advance(backlog, arrivals, tuples=3100)
        assert cycles == pytest.approx(3100 / 8)

    def test_hot_pe_extends_window(self, model):
        cfg = model.config
        backlog = np.zeros(31)
        arrivals = np.zeros(31)
        arrivals[0] = 10_000.0
        cycles = model._advance(backlog, arrivals, tuples=10_000)
        expected = (10_000 - cfg.channel_depth) * cfg.ii_pe
        assert cycles == pytest.approx(expected)
        # The channel keeps exactly `depth` tuples backlogged.
        assert backlog[0] == pytest.approx(cfg.channel_depth)

    def test_backlog_drains_when_arrivals_stop(self, model):
        backlog = np.full(31, 100.0)
        arrivals = np.zeros(31)
        model._advance(backlog, arrivals, tuples=8_000)
        assert backlog.sum() == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=10_000),
                    min_size=4, max_size=31),
           st.integers(min_value=1, max_value=20_000))
    def test_property_backlog_never_exceeds_depth_after_window(
            self, raw, tuples):
        model = EpochModel(ArchitectureConfig(secpes=15))
        arrivals = np.asarray(raw)
        backlog = np.zeros(arrivals.size)
        model._advance(backlog, arrivals, tuples=tuples)
        assert (backlog <= model.config.channel_depth + 1e-6).all()
        assert (backlog >= 0).all()
