"""Bench: regenerate Table II — the six workload mixes.

The paper's Table II lists each mix's kernel configurations.  The bench
prints the machine-readable equivalent and checks the structural facts the
paper states: nine 100-node jobs per mix (a single 900-node job for
HighImbalance), and each mix's defining property.
"""

from repro.analysis.render import render_table
from repro.experiments.tables import table2_mixes
from repro.workload.mixes import MIX_NAMES


def test_table2_mixes(benchmark, paper_grid, emit):
    rows = benchmark.pedantic(table2_mixes, args=(paper_grid,), rounds=1,
                              iterations=1)

    table_rows = [
        [r["mix"], f"{r['intensity_flop_per_byte']:g}", r["vector"],
         f"{r['waiting_pct']}%", f"{r['imbalance']}x", r["nodes"]]
        for r in rows
    ]
    emit(
        "table2_mixes",
        render_table(
            ["mix", "FLOPs/byte", "vector", "waiting", "imbalance", "nodes"],
            table_rows,
            title="Table II — workloads in each workload mix",
        ),
    )

    by_mix = {name: [r for r in rows if r["mix"] == name] for name in MIX_NAMES}

    # Structure: 9 x 100-node jobs, except HighImbalance's single job.
    for name in MIX_NAMES:
        if name == "HighImbalance":
            assert len(by_mix[name]) == 1
            assert by_mix[name][0]["nodes"] == 900
        else:
            assert len(by_mix[name]) == 9
            assert all(r["nodes"] == 100 for r in by_mix[name])

    # Defining properties.
    assert all(r["imbalance"] == 1 for r in by_mix["NeedUsedPower"])
    assert by_mix["HighImbalance"][0]["imbalance"] == 3
    assert by_mix["HighImbalance"][0]["waiting_pct"] == 75
    assert sum(r["waiting_pct"] >= 50 for r in by_mix["WastefulPower"]) >= 5
    assert all(r["vector"] == "xmm" for r in by_mix["LowPower"])
