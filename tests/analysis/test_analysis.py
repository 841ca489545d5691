"""Metrics, table/figure rendering and paper reference data."""

import numpy as np
import pytest

from repro.analysis import paper_data
from repro.analysis.figures import render_heatmap, render_series
from repro.analysis.metrics import (
    gbps,
    mteps,
    mtps,
    speedup,
)
from repro.analysis.tables import Table


class TestMetrics:
    def test_mtps(self):
        assert mtps(26_000_000, 0.013) == pytest.approx(2000.0)

    def test_mteps(self):
        assert mteps(5_000_000, 0.01) == pytest.approx(500.0)

    def test_gbps(self):
        assert gbps(12_500_000_000, 1.0) == pytest.approx(100.0)

    def test_speedup(self):
        assert speedup(12.0, 1.0) == 12.0

    @pytest.mark.parametrize("fn,args", [
        (mtps, (1, 0)), (mteps, (1, 0)), (gbps, (1, 0)),
        (speedup, (1.0, 0.0)),
    ])
    def test_rejects_degenerate_denominators(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)


class TestTable:
    def test_renders_header_rule_rows(self):
        t = Table(["a", "b"], title="T")
        t.add_row(["x", 1.23456])
        text = t.render()
        assert text.splitlines()[0] == "T"
        assert "a" in text and "1.235" in text

    def test_row_width_validation(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table([])


class TestFigures:
    def test_heatmap_renders_all_cells(self):
        m = np.array([[1.0, 2.0], [3.0, 13.3]])
        text = render_heatmap(m, ["r0", "r1"], ["c0", "c1"], title="H")
        assert "13.3" in text
        assert text.startswith("H")

    def test_heatmap_validates_shapes(self):
        with pytest.raises(ValueError):
            render_heatmap(np.zeros(3), ["r"], ["c"])
        with pytest.raises(ValueError):
            render_heatmap(np.zeros((2, 2)), ["r"], ["c0", "c1"])

    def test_series_alignment(self):
        text = render_series(["0", "1"], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        lines = text.splitlines()
        assert len(lines) == 3
        assert "4.0" in lines[2]

    def test_series_title_is_the_first_line(self):
        text = render_series(["0"], {"a": [1.0]}, title="rates")
        assert text.splitlines()[0] == "rates"
        assert render_series(["0"], {"a": [1.0]}).splitlines()[0] \
            .startswith("x")

    def test_series_value_format_applies_to_every_cell(self):
        text = render_series(["0", "1"], {"a": [0.5, 2.25]},
                             value_format="{:.3f}")
        assert text.splitlines()[1].split() == ["a", "0.500", "2.250"]

    def test_series_columns_share_one_width(self):
        # The widest x label or value sets every column's width, and
        # the series names are padded to the longest one.
        text = render_series(["t0", "t1"], {"rate": [1.0, 1234.5],
                                            "r": [2.0, 3.0]})
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1
        assert lines[0] == "x   " + "     t0" + "     t1"
        assert lines[1] == "rate" + "    1.0" + " 1234.5"
        assert lines[2] == "r   " + "    2.0" + "    3.0"

    def test_series_validates_lengths(self):
        with pytest.raises(ValueError):
            render_series(["0"], {"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            render_series(["0"], {})


class TestPaperData:
    def test_fig2a_shape(self):
        assert len(paper_data.FIG2A_HEATMAP) == len(paper_data.FIG2A_ALPHAS)
        assert all(len(row) == 16 for row in paper_data.FIG2A_HEATMAP)

    def test_fig2a_hot_cell_wanders(self):
        """The paper's observation: 'overloaded PEs vary across
        datasets'."""
        hot = [int(np.argmax(row)) for row in paper_data.FIG2A_HEATMAP[3:]]
        assert len(set(hot)) >= 4

    def test_fig2a_rows_roughly_mass_preserving(self):
        """Each row is normalised to the uniform per-PE workload, so it
        sums to ~16 (transcription sanity)."""
        for row in paper_data.FIG2A_HEATMAP:
            assert sum(row) == pytest.approx(16.0, rel=0.15)

    def test_fig8_speedups(self):
        assert len(paper_data.FIG8_SPEEDUPS) == 9
        assert max(paper_data.FIG8_SPEEDUPS) == paper_data.FIG8_MAX_SPEEDUP

    def test_table2_rows_match_anchor_count(self):
        assert len(paper_data.TABLE2_ROWS) == 7

    def test_headlines(self):
        assert paper_data.HEADLINE_SKEW_SPEEDUP == 12.0
        assert paper_data.HEADLINE_BRAM_REDUCTION == 32.0
