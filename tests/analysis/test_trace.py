"""Trace rendering: sparklines and rate summaries."""

import pytest

from repro.analysis.trace import render_rate_trace, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_is_mid_block(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_series_uses_extremes(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_long_series_compressed_to_width(self):
        line = sparkline(list(range(1000)), width=32)
        assert len(line) == 32

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2])) == 2


class TestRateTrace:
    def test_summary_fields(self):
        text = render_rate_trace([0.6, 0.6, 7.5, 7.5], label="t/c")
        assert text.startswith("t/c")
        assert "min 0.60" in text
        assert "max 7.50" in text
        assert "last 7.50" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_rate_trace([])

