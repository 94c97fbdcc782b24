"""Unit tests for the ASCII renderers."""

import numpy as np
import pytest

from repro.analysis.render import (
    render_heatmap,
    render_series,
    render_table,
)


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        out = render_table(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in out and "b" in out
        assert "3" in out and "4" in out

    def test_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.startswith("My Table")

    def test_column_alignment(self):
        out = render_table(["col"], [["x"], ["longer"]])
        lines = out.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width


class TestRenderHeatmap:
    def test_layout(self):
        values = np.array([[214.0, 215.0], [209.0, 210.0]])
        out = render_heatmap(["0.25", "1"], ["0%", "25% at 2x"], values)
        assert "214" in out
        assert "25% at 2x" in out

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_heatmap(["a"], ["b", "c"], np.ones((2, 2)))

    def test_custom_format(self):
        out = render_heatmap(["r"], ["c"], np.array([[1.234]]), fmt="{:.2f}")
        assert "1.23" in out


class TestRenderSeries:
    def test_tabulates(self):
        out = render_series([1.0, 2.0], {"y": [10.0, 20.0]}, x_label="x")
        assert "x" in out and "y" in out
        assert "20" in out
