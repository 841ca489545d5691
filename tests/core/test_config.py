"""Architecture configuration validation and derived quantities."""

import pytest

from repro.core.config import ArchitectureConfig


class TestValidation:
    def test_defaults_are_the_papers_shape(self):
        cfg = ArchitectureConfig()
        assert cfg.lanes == 8
        assert cfg.pripes == 16
        assert cfg.ii_pe == 2
        assert cfg.balanced_for_bandwidth()

    @pytest.mark.parametrize("kwargs", [
        dict(lanes=0),
        dict(pripes=0),
        dict(secpes=-1),
        dict(secpes=16),                       # X <= M-1 (paper §V-C)
        dict(ii_prepe=0),
        dict(ii_pe=0),
        dict(channel_depth=0),
        dict(group_channel_depth=0),
        dict(profiling_cycles=0),
        dict(monitor_window=0),
        dict(reschedule_threshold=1.5),
        dict(reenqueue_delay_cycles=-1),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ArchitectureConfig(**kwargs)

    def test_secpes_upper_bound_is_m_minus_1(self):
        ArchitectureConfig(pripes=16, secpes=15)   # fine
        with pytest.raises(ValueError):
            ArchitectureConfig(pripes=16, secpes=16)


class TestDerived:
    def test_designated_pes(self):
        assert ArchitectureConfig(secpes=4).designated_pes == 20

    @pytest.mark.parametrize("secpes,label", [
        (0, "16P"), (1, "16P+1S"), (15, "16P+15S"),
    ])
    def test_label(self, secpes, label):
        assert ArchitectureConfig(secpes=secpes).label == label

    def test_skew_handling_flag(self):
        assert not ArchitectureConfig(secpes=0).skew_handling
        assert ArchitectureConfig(secpes=1).skew_handling

    def test_with_secpes_copies(self):
        base = ArchitectureConfig()
        derived = base.with_secpes(7)
        assert derived.secpes == 7
        assert base.secpes == 0

    def test_eq1_balance_detects_imbalance(self):
        assert not ArchitectureConfig(lanes=8, pripes=8,
                                      ii_pe=2).balanced_for_bandwidth()

