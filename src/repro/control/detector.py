"""Fleet-level drift detection (§IV-C3's monitor, lifted to workers).

Inside one pipeline the runtime profiler detects distribution change
indirectly: windowed throughput dropping below a fraction of the
post-plan peak.  At fleet level the balancer already histograms a key
sample per closed window, so the controller can watch the distribution
*directly*: the detector keeps the histogram the active plan was built
from as its reference and flags drift when the observed per-shard load
diverges from it by more than a total-variation threshold.

Total variation — ``0.5 * sum |p_i - q_i|`` over normalized shard
shares — is the natural distance here: it bounds how much tuple mass the
active plan can misplace, i.e. exactly the load the greedy helper
assignment is no longer covering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance between two histograms (normalized internally)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("histograms must have the same shape")
    ps, qs = p.sum(), q.sum()
    if ps <= 0 or qs <= 0:
        return 0.0
    return 0.5 * float(np.abs(p / ps - q / qs).sum())


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one detector update.

    Attributes
    ----------
    drifted:
        True when the observed histogram diverged past the threshold.
    distance:
        Total-variation distance from the reference histogram.
    windows_since_rebase:
        Closed windows observed since the reference was last (re)set —
        the plan's age in windows when ``drifted`` fires.
    """

    drifted: bool
    distance: float
    windows_since_rebase: int


class DriftDetector:
    """Compares observed shard load against the active plan's histogram.

    Parameters
    ----------
    threshold:
        TV distance at which a window counts as drifted.  0.25 means a
        quarter of the tuple mass moved to shards the plan was not built
        for — roughly one hot shard changing hands on a 4-primary fleet.
    """

    def __init__(self, threshold: float = 0.25) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self._reference: Optional[np.ndarray] = None
        self._windows_since_rebase = 0

    @property
    def reference(self) -> Optional[np.ndarray]:
        """The histogram the active plan was built from (or None)."""
        return self._reference

    def rebase(self, histogram: np.ndarray) -> None:
        """Adopt ``histogram`` as the new reference (plan just applied)."""
        self._reference = np.asarray(histogram, dtype=np.float64).copy()
        self._windows_since_rebase = 0

    def reset(self) -> None:
        """Forget the reference (fleet shape changed; plan invalid)."""
        self._reference = None
        self._windows_since_rebase = 0

    def update(self, histogram: np.ndarray) -> DriftReport:
        """Score one window's observed histogram against the reference.

        With no reference yet (first window, or right after a
        :meth:`reset`), the histogram becomes the reference and the
        window is not drifted by definition.
        """
        if self._reference is None or len(self._reference) != len(histogram):
            self.rebase(histogram)
            return DriftReport(False, 0.0, 0)
        self._windows_since_rebase += 1
        distance = total_variation(histogram, self._reference)
        return DriftReport(distance >= self.threshold, distance,
                           self._windows_since_rebase)
