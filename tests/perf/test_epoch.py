"""Epoch model: stationary behaviour, control-loop transients."""

import numpy as np
import pytest

from repro.core.config import ArchitectureConfig
from repro.perf.epoch import EpochModel
from repro.workloads.zipf import ZipfGenerator


def route_ids(alpha, n, seed=1):
    batch = ZipfGenerator(alpha=alpha, seed=seed).generate(n)
    return (batch.keys % np.uint64(16)).astype(np.int64)


class TestStationary:
    def test_uniform_runs_at_bandwidth(self):
        model = EpochModel(ArchitectureConfig(), window_tuples=16_384)
        result = model.run(route_ids(0.0, 100_000))
        assert result.tuples_per_cycle > 7.0

    def test_skew_collapses_without_secpes(self):
        model = EpochModel(ArchitectureConfig())
        result = model.run(route_ids(3.0, 100_000))
        assert result.tuples_per_cycle < 0.7

    def test_secpes_recover_throughput(self):
        cfg = ArchitectureConfig(secpes=15, reschedule_threshold=0.0)
        model = EpochModel(cfg)
        result = model.run(route_ids(3.0, 100_000))
        assert result.tuples_per_cycle > 6.0
        assert len(result.plans) == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            EpochModel(ArchitectureConfig()).run(np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            EpochModel(ArchitectureConfig(), window_tuples=0)

    def test_throughput_mtps_scales_with_frequency(self):
        model = EpochModel(ArchitectureConfig())
        result = model.run(route_ids(0.0, 50_000))
        assert result.throughput_mtps(200.0) == pytest.approx(
            2 * result.throughput_mtps(100.0))


class TestControlLoop:
    def test_distribution_change_triggers_reschedule(self):
        a = route_ids(3.0, 60_000, seed=11)
        b = route_ids(3.0, 60_000, seed=99)
        stream = np.concatenate([a, b])
        cfg = ArchitectureConfig(secpes=15, reschedule_threshold=0.5,
                                 reenqueue_delay_cycles=1_000)
        model = EpochModel(cfg, window_tuples=8_192)
        result = model.run(stream)
        assert result.reschedules >= 1
        assert len(result.plans) >= 2

    def test_threshold_zero_keeps_single_plan(self):
        a = route_ids(3.0, 60_000, seed=11)
        b = route_ids(3.0, 60_000, seed=99)
        cfg = ArchitectureConfig(secpes=15, reschedule_threshold=0.0)
        model = EpochModel(cfg)
        result = model.run(np.concatenate([a, b]))
        assert result.reschedules == 0
        assert len(result.plans) == 1

    def test_rescheduling_beats_stale_plan(self):
        """With the hot PE moving, re-planning must win over a frozen
        plan despite the re-enqueue cost."""
        parts = [route_ids(3.0, 80_000, seed=s) for s in (5, 17, 29)]
        stream = np.concatenate(parts)
        on = ArchitectureConfig(secpes=15, reschedule_threshold=0.5,
                                reenqueue_delay_cycles=2_000)
        off = ArchitectureConfig(secpes=15, reschedule_threshold=0.0)
        rate_on = EpochModel(on).run(stream).tuples_per_cycle
        rate_off = EpochModel(off).run(stream).tuples_per_cycle
        assert rate_on > rate_off
