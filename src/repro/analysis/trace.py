"""Execution-trace rendering: sparklines for windowed rates.

Turns the windowed-throughput series the simulator produces into a
compact unicode sparkline — the quickest way to *see* when a scheduling
plan kicks in.  Used by the validation bench.
"""

from __future__ import annotations

from typing import Sequence

_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 64) -> str:
    """Render ``values`` as a fixed-width unicode sparkline.

    Values are min-max normalised; longer series are block-averaged down
    to ``width`` samples.
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) > width:
        # Block-average down to `width` buckets.
        bucket = len(values) / width
        values = [
            sum(values[int(i * bucket): max(int(i * bucket) + 1,
                                            int((i + 1) * bucket))])
            / max(1, len(values[int(i * bucket): max(int(i * bucket) + 1,
                                                     int((i + 1) * bucket))]))
            for i in range(width)
        ]
    low = min(values)
    high = max(values)
    span = high - low
    if span <= 0:
        return _BARS[len(_BARS) // 2] * len(values)
    out = []
    for v in values:
        index = int((v - low) / span * (len(_BARS) - 1))
        out.append(_BARS[index])
    return "".join(out)


def render_rate_trace(window_rates: Sequence[float],
                      label: str = "rate") -> str:
    """One-line summary of a windowed-rate series.

    >>> print(render_rate_trace([1.0, 1.0, 8.0, 8.0]))  # doctest: +SKIP
    rate  ▁▁██  min 1.00  max 8.00  last 8.00
    """
    if not window_rates:
        raise ValueError("empty rate series")
    return (
        f"{label}  {sparkline(window_rates)}  "
        f"min {min(window_rates):.2f}  max {max(window_rates):.2f}  "
        f"last {window_rates[-1]:.2f}"
    )

