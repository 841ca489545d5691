"""Autoscaler: SLO comparison, hysteresis band, cooldown, clamps."""

import re
from functools import partial

import pytest

from repro.control import ControlPolicy
from repro.control.autoscaler import Autoscaler


def scaler(slo=0.1, **kwargs):
    """An autoscaler's ``decide`` bound to one policy."""
    defaults = dict(min_workers=1, max_workers=8, shrink_margin=0.4,
                    scale_cooldown=0)
    defaults.update(kwargs)
    return partial(Autoscaler(slo).decide, ControlPolicy(**defaults))


class TestDecisions:
    def test_over_slo_grows(self):
        decision = scaler()(tuples_delta=1_000, busy_cycles_delta=200,
                            size=4)
        assert decision.size == 5
        assert decision.reason == "grow"
        assert decision.observed_cycles_per_tuple == pytest.approx(0.2)

    def test_under_margin_shrinks(self):
        decision = scaler()(1_000, 20, size=4)  # 0.02 < 0.4 * 0.1
        assert decision.size == 3
        assert decision.reason == "shrink"

    def test_inside_band_holds(self):
        # 0.06 c/t: under the SLO but above the shrink margin.
        decision = scaler()(1_000, 60, size=4)
        assert decision.size == 4
        assert decision.reason == "hold"

    def test_no_tuples_holds(self):
        assert scaler()(0, 999, size=4).reason == "hold"


class TestClampsAndCooldown:
    def test_never_exceeds_max_workers(self):
        assert scaler(max_workers=4)(1_000, 500, size=4).size == 4

    def test_never_drops_below_min_workers(self):
        assert scaler(min_workers=3)(1_000, 1, size=3).size == 3

    def test_cooldown_skips_checks_after_resize(self):
        decide = scaler(scale_cooldown=2)
        assert decide(1_000, 500, size=2).reason == "grow"
        assert decide(1_000, 500, size=3).reason == "hold"
        assert decide(1_000, 500, size=3).reason == "hold"
        assert decide(1_000, 500, size=3).reason == "grow"

    def test_slo_validation(self):
        with pytest.raises(ValueError, match="slo_cycles_per_tuple"):
            Autoscaler(0.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(min_workers=0), "need 0 < min_workers <= max_workers"),
        (dict(min_workers=5, max_workers=4),
         "need 0 < min_workers <= max_workers"),
        (dict(shrink_margin=1.0), "shrink_margin must be in [0, 1)"),
        (dict(scale_cooldown=-1), "scale_cooldown must be non-negative"),
        (dict(autoscale_every=0), "autoscale_every must be positive"),
    ])
    def test_policy_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ControlPolicy(**kwargs)
