"""Drift detector: TV distance, rebasing, and the drift threshold."""

import numpy as np
import pytest

from repro.control.detector import DriftDetector, total_variation


class TestTotalVariation:
    def test_identical_distributions_are_zero(self):
        hist = np.array([10, 20, 70])
        assert total_variation(hist, hist * 3) == 0.0  # scale-invariant

    def test_disjoint_distributions_are_one(self):
        assert total_variation(np.array([1, 0]), np.array([0, 1])) == 1.0

    def test_hot_shard_swap_is_half_the_moved_mass(self):
        # 60% of mass moves from shard 0 to shard 2.
        p = np.array([0.7, 0.2, 0.1])
        q = np.array([0.1, 0.2, 0.7])
        assert total_variation(p, q) == pytest.approx(0.6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            total_variation(np.array([1, 2]), np.array([1, 2, 3]))

    def test_empty_histograms_are_zero(self):
        assert total_variation(np.zeros(4), np.ones(4)) == 0.0


class TestDriftDetector:
    def test_first_update_rebases_not_drifts(self):
        detector = DriftDetector(threshold=0.25)
        report = detector.update(np.array([100, 0, 0]))
        assert not report.drifted
        assert detector.reference is not None

    def test_stable_distribution_never_drifts(self):
        detector = DriftDetector(threshold=0.25)
        detector.rebase(np.array([50, 30, 20]))
        for _ in range(5):
            # Sampling noise well below the threshold.
            report = detector.update(np.array([52, 29, 19]))
            assert not report.drifted

    def test_moved_hot_shard_drifts(self):
        detector = DriftDetector(threshold=0.25)
        detector.rebase(np.array([80, 10, 10]))
        report = detector.update(np.array([10, 80, 10]))
        assert report.drifted
        assert report.distance == pytest.approx(0.7)

    def test_windows_since_rebase_is_plan_age(self):
        detector = DriftDetector(threshold=0.9)
        detector.rebase(np.array([1, 1]))
        for expected in (1, 2, 3):
            report = detector.update(np.array([1, 1]))
            assert report.windows_since_rebase == expected
        detector.rebase(np.array([1, 1]))
        assert detector.update(np.array([1, 1])).windows_since_rebase == 1

    def test_reset_and_shape_change_rebase_silently(self):
        detector = DriftDetector(threshold=0.1)
        detector.rebase(np.array([9, 1]))
        detector.reset()
        assert not detector.update(np.array([1, 9])).drifted
        # A fleet reshape changes the histogram length: rebase, no drift.
        assert not detector.update(np.array([1, 1, 8])).drifted

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            DriftDetector(threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(threshold=1.5)
