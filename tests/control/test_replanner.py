"""Cost-aware replanner: Fig. 9 regime placement and hysteresis."""

import re
from dataclasses import replace

import pytest

from repro.control import ControlPolicy
from repro.control.replanner import ReplanDecision, classify, decide
from repro.core.config import ArchitectureConfig

POLICY = ControlPolicy(cycles_per_tuple=1.0, amortize_factor=4.0,
                       burst_tuples=1_000, hysteresis_windows=2)


def regime(interval, cost=10_000, **kwargs):
    return classify(replace(POLICY, **kwargs), cost, interval)


def decision(interval, windows_since_replan, cost=10_000, **kwargs):
    return decide(replace(POLICY, **kwargs), cost, interval,
                  windows_since_replan)


class TestRegimes:
    def test_tiny_intervals_are_absorbed(self):
        assert regime(500) == "absorbed"
        assert regime(1_000) == "absorbed"

    def test_interval_comparable_to_cost_thrashes(self):
        # 20k tuples * 1 c/t = 20k cycles <= 4 * 10k cost.
        assert regime(20_000) == "thrashing"

    def test_long_intervals_amortise(self):
        assert regime(200_000) == "amortised"

    def test_burst_regime_can_be_disabled(self):
        # Without the freeze regime a tiny interval is just thrashing.
        assert regime(500, burst_tuples=0) == "thrashing"

    def test_regime_math_matches_evolving_model_boundaries(self):
        """The classify boundary is amortize_factor * cost, the same
        margin perf.evolving uses between amortised and thrashing."""
        assert regime(4_000, cost=1_000, burst_tuples=0) == "thrashing"
        assert regime(4_001, cost=1_000, burst_tuples=0) == "amortised"


class TestDecisions:
    def test_absorbed_freezes(self):
        assert decision(500, 10) is ReplanDecision.FREEZE

    def test_thrashing_holds(self):
        assert decision(20_000, 10) is ReplanDecision.HOLD

    def test_amortised_replans(self):
        assert decision(500_000, 10) is ReplanDecision.REPLAN

    def test_hysteresis_suppresses_back_to_back_replans(self):
        assert decision(500_000, 2, hysteresis_windows=3) \
            is ReplanDecision.HOLD
        assert decision(500_000, 3, hysteresis_windows=3) \
            is ReplanDecision.REPLAN


class TestDefaults:
    def test_default_cost_matches_config_decomposition(self):
        config = ArchitectureConfig(secpes=4)
        cost = config.reschedule_cost_cycles()
        expected = (2 * config.monitor_window
                    + config.channel_depth * config.ii_pe
                    + config.reenqueue_delay_cycles
                    + config.profiling_cycles + config.secpes)
        assert cost == expected

    @pytest.mark.parametrize("field, value, message", [
        ("cycles_per_tuple", 0, "cycles_per_tuple must be positive"),
        ("amortize_factor", 0.5, "amortize_factor must be >= 1"),
        ("burst_tuples", -1, "burst_tuples must be non-negative"),
        ("hysteresis_windows", -1,
         "hysteresis_windows must be non-negative"),
    ])
    def test_policy_validation(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ControlPolicy(**{field: value})
