"""Bench: continuous budget sweep — the curve behind Figs. 7-8.

The paper samples three budgets; this sweep runs nine between the RAPL
floor and TDP and prints utilisation plus savings at each, exposing the
regions the paper describes: degeneration to StaticCaps near the floor,
the sharing-rich middle, and the inert-surplus top where savings flip
from time to energy.
"""

import numpy as np

from repro.analysis.render import render_table
from repro.experiments.sensitivity import budget_sweep


def test_budget_sweep(benchmark, paper_grid, emit):
    points = benchmark.pedantic(
        budget_sweep, args=(paper_grid,),
        kwargs={"mix_name": "WastefulPower", "points": 9},
        rounds=1, iterations=1,
    )

    by_budget = {}
    for p in points:
        by_budget.setdefault(p.budget_per_node_w, {})[p.policy_name] = p
    rows = []
    for per_node in sorted(by_budget):
        mixed = by_budget[per_node]["MixedAdaptive"]
        static = by_budget[per_node]["StaticCaps"]
        rows.append([
            f"{per_node:.0f}",
            f"{static.utilization:.0%}",
            f"{mixed.utilization:.0%}",
            f"{mixed.time_savings_pct:+.1f}%",
            f"{mixed.energy_savings_pct:+.1f}%",
        ])
    emit(
        "budget_sweep",
        render_table(
            ["W/node", "StaticCaps util", "MixedAdaptive util",
             "time savings", "energy savings"],
            rows,
            title="Budget sweep on WastefulPower (MixedAdaptive vs StaticCaps)",
        ),
    )

    mixed_points = sorted(
        (p for p in points if p.policy_name == "MixedAdaptive"),
        key=lambda p: p.budget_per_node_w,
    )
    # Near the floor the policies converge toward StaticCaps: savings at
    # the first sweep point are small and well below the interior peak.
    assert mixed_points[0].time_savings_pct < 2.0
    assert mixed_points[0].time_savings_pct < max(
        p.time_savings_pct for p in mixed_points
    )
    # Time savings peak strictly inside the sweep, not at either end.
    times = [p.time_savings_pct for p in mixed_points]
    peak = int(np.argmax(times))
    assert 0 < peak < len(times) - 1
    # Energy savings at the top of the sweep beat those at the bottom.
    assert mixed_points[-1].energy_savings_pct > mixed_points[0].energy_savings_pct
    # StaticCaps utilisation falls below 100 % once budgets exceed demand.
    static_points = sorted(
        (p for p in points if p.policy_name == "StaticCaps"),
        key=lambda p: p.budget_per_node_w,
    )
    assert static_points[0].utilization > 0.98
    assert static_points[-1].utilization < 0.95
