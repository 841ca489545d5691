"""Cost-aware replanner: Fig. 9 regime placement and hysteresis."""

import pytest

from repro.control.replanner import CostAwareReplanner, ReplanDecision
from repro.core.config import ArchitectureConfig


def make(cost=10_000, **kwargs):
    defaults = dict(cycles_per_tuple=1.0, amortize_factor=4.0,
                    burst_tuples=1_000, hysteresis_windows=2)
    defaults.update(kwargs)
    return CostAwareReplanner(cost, **defaults)


class TestRegimes:
    def test_tiny_intervals_are_absorbed(self):
        assert make().classify(500) == "absorbed"
        assert make().classify(1_000) == "absorbed"

    def test_interval_comparable_to_cost_thrashes(self):
        # 20k tuples * 1 c/t = 20k cycles <= 4 * 10k cost.
        assert make().classify(20_000) == "thrashing"

    def test_long_intervals_amortise(self):
        assert make().classify(200_000) == "amortised"

    def test_burst_regime_can_be_disabled(self):
        replanner = make(burst_tuples=0)
        # Without the freeze regime a tiny interval is just thrashing.
        assert replanner.classify(500) == "thrashing"

    def test_regime_math_matches_evolving_model_boundaries(self):
        """The classify boundary is amortize_factor * cost, the same
        margin perf.evolving uses between amortised and thrashing."""
        replanner = make(cost=1_000, cycles_per_tuple=1.0,
                         amortize_factor=4.0, burst_tuples=0)
        assert replanner.classify(4_000) == "thrashing"   # == 4x cost
        assert replanner.classify(4_001) == "amortised"   # just past


class TestDecisions:
    def test_absorbed_freezes(self):
        assert make().decide(500, 10) is ReplanDecision.FREEZE

    def test_thrashing_holds(self):
        assert make().decide(20_000, 10) is ReplanDecision.HOLD

    def test_amortised_replans(self):
        assert make().decide(500_000, 10) is ReplanDecision.REPLAN

    def test_hysteresis_suppresses_back_to_back_replans(self):
        replanner = make(hysteresis_windows=3)
        assert replanner.decide(500_000, 2) is ReplanDecision.HOLD
        assert replanner.decide(500_000, 3) is ReplanDecision.REPLAN


class TestDefaults:
    def test_default_cost_matches_config_decomposition(self):
        config = ArchitectureConfig(secpes=4)
        cost = config.reschedule_cost_cycles()
        expected = (2 * config.monitor_window
                    + config.channel_depth * config.ii_pe
                    + config.reenqueue_delay_cycles
                    + config.profiling_cycles + config.secpes)
        assert cost == expected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CostAwareReplanner(-1)
        with pytest.raises(ValueError):
            CostAwareReplanner(10, cycles_per_tuple=0)
        with pytest.raises(ValueError):
            CostAwareReplanner(10, amortize_factor=0.5)
        with pytest.raises(ValueError):
            CostAwareReplanner(10, burst_tuples=-1)
        with pytest.raises(ValueError):
            CostAwareReplanner(10, hysteresis_windows=-1)
