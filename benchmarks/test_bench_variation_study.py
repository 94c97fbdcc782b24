"""Bench: hardware-variation sensitivity — what the paper's §V-A2 controls.

The paper runs only on the medium-frequency partition "so that our
results reflect a central tendency of performance".  This study runs the
same mix, budget, and policy on the low / medium / high partitions and an
idealised variation-free cluster, quantifying the spread the selection
step removes.
"""

from repro.analysis.render import render_table
from repro.experiments.sensitivity import variation_sensitivity


def test_variation_study(benchmark, emit):
    outcomes = benchmark.pedantic(
        variation_sensitivity,
        kwargs={"nodes_per_job": 10, "survey_nodes": 1200,
                "budget_per_node_w": 180.0},
        rounds=1, iterations=1,
    )

    rows = []
    for name in ("high", "medium", "novariation", "low"):
        o = outcomes[name]
        rows.append([
            name,
            f"{o['mean_efficiency']:.3f}",
            f"{o['mean_elapsed_s']:.2f} s",
            f"{o['total_energy_j'] / 1e6:.2f} MJ",
        ])
    emit(
        "variation_study",
        render_table(
            ["partition", "mean efficiency", "mean elapsed", "energy"],
            rows,
            title="Variation sensitivity: RandomLarge @ 180 W/node, "
                  "MixedAdaptive",
        ),
    )

    # Power-inefficient (low-frequency) nodes run strictly slower under
    # the same budget; the medium partition sits between the extremes.
    assert outcomes["low"]["mean_elapsed_s"] > outcomes["medium"]["mean_elapsed_s"]
    assert outcomes["medium"]["mean_elapsed_s"] > outcomes["high"]["mean_elapsed_s"]
    # The idealised cluster tracks the medium partition closely: medium
    # selection is a good stand-in for "no variation".
    med = outcomes["medium"]["mean_elapsed_s"]
    ideal = outcomes["novariation"]["mean_elapsed_s"]
    assert abs(med - ideal) / ideal < 0.05
