"""Bench: regenerate Fig. 6 — achieved-frequency clustering of 2000 nodes.

The paper surveys 2 000 nodes under 70 W-per-socket caps with the most
power-hungry configuration, k-means-partitions the achieved frequencies,
and uses the 918-node medium cluster.  The bench reruns the survey and
checks populations (522/918/560) and the frequency band (1.6-1.9 GHz).
"""

import pytest

from repro.analysis.render import render_table
from repro.experiments.figures import fig6_survey_data


def test_fig6_node_clusters(benchmark, paper_grid, emit):
    data = benchmark.pedantic(
        fig6_survey_data, args=(paper_grid,), rounds=1, iterations=1
    )

    paper_counts = {"low": 522, "medium": 918, "high": 560}
    rows = []
    for name in ("low", "medium", "high"):
        cluster = data["clusters"][name]
        rows.append([
            name,
            cluster["count"],
            paper_counts[name],
            f"{cluster['mean_ghz']:.2f}",
            f"{cluster['min_ghz']:.2f}-{cluster['max_ghz']:.2f}",
        ])
    emit(
        "fig6_node_clusters",
        render_table(
            ["cluster", "n (repro)", "n (paper)", "mean GHz", "range GHz"],
            rows,
            title="Fig. 6 — node frequency clusters under 70 W/socket caps",
        ),
    )

    for name in paper_counts:
        assert data["clusters"][name]["count"] == pytest.approx(
            paper_counts[name], abs=30
        ), name
    # Frequency band: the paper's whiskers run ~1.55-2.0 GHz.
    assert data["clusters"]["low"]["min_ghz"] > 1.45
    assert data["clusters"]["high"]["max_ghz"] < 2.1
