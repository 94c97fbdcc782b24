"""Bench: regenerate Table III — min/ideal/max power budgets per mix.

The paper derives three budgets per mix from the characterizations and
footnotes "TDP of all CPUs is 216 kW".  The bench prints the reproduced
kW values next to the paper's and checks ordering plus range agreement.
"""

import pytest

from repro.analysis.render import render_table
from repro.experiments.tables import table3_budgets

#: The paper's Table III (kW).
PAPER_TABLE3 = {
    "NeedUsedPower": (167, 171, 209),
    "HighImbalance": (141, 163, 209),
    "WastefulPower": (136, 144, 209),
    "LowPower": (138, 152, 209),
    "HighPower": (140, 177, 209),
    "RandomLarge": (139, 164, 209),
}


def test_table3_budgets(benchmark, paper_grid, emit):
    rows = benchmark.pedantic(table3_budgets, args=(paper_grid,), rounds=1,
                              iterations=1)

    table_rows = []
    for row in rows:
        paper = PAPER_TABLE3[row["mix"]]
        table_rows.append([
            row["mix"],
            f"{row['min_kw']:.0f} ({paper[0]})",
            f"{row['ideal_kw']:.0f} ({paper[1]})",
            f"{row['max_kw']:.0f} ({paper[2]})",
            f"{row['total_tdp_kw']:.0f} (216)",
        ])
    emit(
        "table3_budgets",
        render_table(
            ["mix", "min kW (paper)", "ideal kW (paper)", "max kW (paper)",
             "TDP kW (paper)"],
            table_rows,
            title="Table III — power budgets for each workload mix",
        ),
    )

    for row in rows:
        # Ordering invariant.
        assert row["min_kw"] <= row["ideal_kw"] <= row["max_kw"]
        # The TDP footnote is exact: 900 nodes x 240 W.
        assert row["total_tdp_kw"] == pytest.approx(216.0)
        # Range agreement with the paper: min within [135, 170] kW,
        # ideal within [140, 195] kW, max within [185, 216] kW (the
        # paper's max is 209 kW everywhere; our LowPower mix is all-xmm,
        # whose hungriest node sits a little lower — see EXPERIMENTS.md).
        assert 135.0 <= row["min_kw"] <= 170.0, row["mix"]
        assert 140.0 <= row["ideal_kw"] <= 195.0, row["mix"]
        assert 185.0 <= row["max_kw"] <= 216.0, row["mix"]
