"""Bench: regenerate Fig. 8 — the four savings metrics vs StaticCaps.

The paper's headline grid: time savings, energy savings, EDP savings, and
FLOPS/W increase for the three dynamic policies over six mixes and three
budgets, with 95 % CIs over 100 iterations.  Checks the lettered markers
and the abstract's "up to 7 % time / up to 11 % energy" headlines.
"""

import numpy as np

from repro.analysis.render import render_table
from repro.experiments.figures import fig8_savings_grid
from repro.workload.mixes import MIX_NAMES

POLICIES = ("MinimizeWaste", "JobAdaptive", "MixedAdaptive")


def test_fig8_savings_grid(benchmark, paper_results, emit):
    grid = benchmark(fig8_savings_grid, paper_results)

    rows = []
    for mix in MIX_NAMES:
        for level in ("min", "ideal", "max"):
            for policy in POLICIES:
                s = grid[(mix, level, policy)]
                rows.append([
                    mix, level, policy,
                    f"{100 * s.time_savings.mean:+.1f}±{100 * s.time_savings.half_width:.1f}",
                    f"{100 * s.energy_savings.mean:+.1f}±{100 * s.energy_savings.half_width:.1f}",
                    f"{100 * s.edp_savings.mean:+.1f}",
                    f"{100 * s.flops_per_watt_increase.mean:+.1f}",
                ])
    best_time = max(s.time_savings.mean for s in grid.values())
    best_energy = max(s.energy_savings.mean for s in grid.values())
    emit(
        "fig8_savings_grid",
        render_table(
            ["mix", "budget", "policy", "time %", "energy %", "EDP %", "FLOPS/W %"],
            rows,
            title="Fig. 8 — savings vs StaticCaps (mean ± 95% CI over 100 iters)",
        ),
    )

    # Headlines: "up to 7% reduction in system time and up to 11% savings
    # in energy" — same order of magnitude, same winners.
    assert 0.05 <= best_time <= 0.12, f"best time savings {best_time:.1%}"
    assert 0.08 <= best_energy <= 0.16, f"best energy savings {best_energy:.1%}"

    # Marker (d): at the max budget on WastefulPower, MixedAdaptive's
    # energy savings are the grid's standout (>= 9 %).
    d = grid[("WastefulPower", "max", "MixedAdaptive")]
    assert d.energy_savings.mean > 0.09

    # Marker (c): at the ideal budget on NeedUsedPower, MinimizeWaste
    # saves at least as much time as JobAdaptive.
    c_waste = grid[("NeedUsedPower", "ideal", "MinimizeWaste")]
    c_job = grid[("NeedUsedPower", "ideal", "JobAdaptive")]
    assert c_waste.time_savings.mean >= c_job.time_savings.mean - 0.002

    # Takeaway 4: NeedUsedPower shows no energy-saving opportunity.
    nup = max(
        grid[("NeedUsedPower", lvl, pol)].energy_savings.mean
        for lvl in ("min", "ideal", "max")
        for pol in POLICIES
    )
    assert nup < 0.02

    # Trends: time savings shrink and energy savings grow with the budget
    # (MixedAdaptive, averaged over mixes).
    def level_mean(metric, level):
        return float(np.mean([
            getattr(grid[(m, level, "MixedAdaptive")], metric).mean
            for m in MIX_NAMES
        ]))

    assert level_mean("time_savings", "min") > level_mean("time_savings", "max")
    assert level_mean("energy_savings", "max") > level_mean("energy_savings", "min")
