"""Bench: regenerate Table I — Quartz system properties."""

from repro.analysis.render import render_table
from repro.experiments.tables import table1_system_properties

PAPER_TABLE1 = {
    "CPU": "Intel Xeon E5-2695, dual-socket",
    "Cores Per Node": "36",
    "Thermal Design Power": "120 W per CPU socket",
    "Minimum RAPL Limit": "68 W per CPU socket",
    "Base Frequency": "2.1 GHz",
}


def test_table1_system_properties(benchmark, emit):
    table = benchmark(table1_system_properties)

    rows = [[k, table[k], PAPER_TABLE1[k]] for k in PAPER_TABLE1]
    emit(
        "table1_system_properties",
        render_table(["property", "reproduced", "paper"], rows,
                     title="Table I — Quartz system properties"),
    )

    assert table["Cores Per Node"] == PAPER_TABLE1["Cores Per Node"]
    assert table["Thermal Design Power"] == PAPER_TABLE1["Thermal Design Power"]
    assert table["Minimum RAPL Limit"] == PAPER_TABLE1["Minimum RAPL Limit"]
    assert table["Base Frequency"] == PAPER_TABLE1["Base Frequency"]
    assert "E5-2695" in table["CPU"]
