"""Bench: regenerate Fig. 5 — needed power per node (power balancer agent).

Under the balancer with a TDP-level budget, hosts off the critical path
settle at the minimum power that preserves iteration time; the heat map
shows the resulting mean node power.  The paper's signature observations,
checked here: vertical bands (needed power drops with the waiting-rank
percentage), mid-intensity cells showing the biggest reductions, and every
cell at or below its Fig. 4 counterpart.
"""

import numpy as np
import pytest

from repro.analysis.render import render_heatmap
from repro.experiments.figures import fig4_monitor_heatmap, fig5_balancer_heatmap

#: Selected cells from the paper's Fig. 5 (W per node).
PAPER_FIG5_CELLS = {
    (0.25, 0.0, 1): 214,
    (1.0, 0.0, 1): 207,
    (8.0, 0.25, 2): 213,
    (8.0, 0.5, 2): 199,
    (8.0, 0.75, 3): 191,
    (16.0, 0.75, 3): 190,
    (32.0, 0.5, 2): 190,
}


def test_fig5_balancer_power(benchmark, paper_grid, emit):
    heatmap = benchmark.pedantic(
        fig5_balancer_heatmap, args=(paper_grid,), kwargs={"test_nodes": 100},
        rounds=1, iterations=1,
    )

    text = render_heatmap(
        [f"{i:g}" for i in heatmap.intensities],
        heatmap.column_labels(),
        heatmap.values,
        title="Fig. 5 — needed CPU power per node, ymm (W); paper range 186-222 W",
    )
    emit("fig5_balancer_power", text)

    # Selected paper cells within 10 W.
    for (intensity, waiting, imbalance), watts in PAPER_FIG5_CELLS.items():
        cell = heatmap.cell(intensity, waiting, imbalance)
        assert cell == pytest.approx(watts, abs=10.0), (intensity, waiting, imbalance)

    # Vertical bands: monotone decrease with waiting percentage at 2x.
    cols = list(heatmap.columns)
    band = [cols.index(c) for c in [(0.0, 1), (0.25, 2), (0.5, 2), (0.75, 2)]]
    for row in heatmap.values:
        assert all(row[a] >= row[b] for a, b in zip(band, band[1:]))

    # Every cell at or below the monitor heat map.
    monitor = fig4_monitor_heatmap(paper_grid, test_nodes=100)
    assert np.all(heatmap.values <= monitor.values + 1e-6)
