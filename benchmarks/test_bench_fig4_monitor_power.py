"""Bench: regenerate Fig. 4 — uncapped CPU power per node (monitor agent).

The paper runs every ymm kernel configuration on 100 test nodes under the
GEOPM monitor agent and reports mean node power per cell.  The bench
regenerates the full 8 x 7 heat map on 100 medium-partition nodes and
checks the calibration against the paper's printed cells.
"""

import numpy as np

from repro.analysis.render import render_heatmap
from repro.experiments.figures import fig4_monitor_heatmap

#: The paper's Fig. 4 ymm heat map, transcribed (W per node).
PAPER_FIG4 = np.array([
    # 0%   25@2x 25@3x 50@2x 50@3x 75@2x 75@3x
    [214, 215, 215, 213, 213, 212, 212],   # 0.25
    [212, 212, 212, 211, 211, 211, 210],   # 0.5
    [209, 210, 210, 209, 209, 209, 209],   # 1
    [213, 214, 214, 213, 213, 212, 212],   # 2
    [223, 223, 223, 221, 220, 219, 217],   # 4
    [232, 231, 230, 228, 226, 225, 222],   # 8
    [222, 221, 221, 220, 218, 218, 216],   # 16
    [216, 214, 215, 214, 213, 213, 211],   # 32
])


def test_fig4_monitor_power(benchmark, paper_grid, emit):
    heatmap = benchmark.pedantic(
        fig4_monitor_heatmap, args=(paper_grid,), kwargs={"test_nodes": 100},
        rounds=1, iterations=1,
    )

    text = render_heatmap(
        [f"{i:g}" for i in heatmap.intensities],
        heatmap.column_labels(),
        heatmap.values,
        title="Fig. 4 — uncapped CPU power per node, ymm (W); paper range 209-232 W",
    )
    deviation = np.abs(heatmap.values - PAPER_FIG4)
    emit("fig4_monitor_power", text)

    # Cell-level agreement with the paper: within 4 W everywhere.
    assert heatmap.values.shape == PAPER_FIG4.shape
    assert float(deviation.max()) < 4.0, (
        f"worst cell deviates {deviation.max():.1f} W from the paper"
    )
    # Power peaks at intensity 8, as in the paper.
    assert heatmap.intensities[int(np.argmax(heatmap.values[:, 0]))] == 8.0
