"""Bench: regenerate Fig. 1 — facility power vs the 1.35 MW rating.

The paper's figure shows a year of Quartz telemetry: instantaneous draw,
a one-day moving average near 0.83 MW, and the 1.35 MW rating line.  The
benchmark times the trace generation + analysis and prints the statistics
a reader extracts from the figure.
"""

from repro.analysis.render import render_table
from repro.experiments.figures import fig1_facility_data
from repro.workload.facility import FacilityTraceConfig


def test_fig1_facility_trace(benchmark, emit):
    data = benchmark(fig1_facility_data, FacilityTraceConfig())
    stats = data["statistics"]

    rows = [
        ["Peak power rating", f"{stats['rating_mw']:.2f} MW", "1.35 MW"],
        ["Mean draw", f"{stats['mean_mw']:.2f} MW", "~0.83 MW"],
        ["Mean 1-day average", f"{stats['mean_daily_average_mw']:.2f} MW", "~0.83 MW"],
        ["Peak draw", f"{stats['peak_mw']:.2f} MW", "< rating"],
        ["Mean utilisation", f"{stats['mean_utilization']:.0%}", "~61%"],
        ["Stranded capacity", f"{stats['stranded_power_mw']:.2f} MW", "~0.52 MW"],
    ]
    emit(
        "fig1_facility_trace",
        render_table(["quantity", "reproduced", "paper"], rows,
                     title="Fig. 1 — Quartz facility power (synthetic trace)"),
    )

    assert abs(stats["mean_mw"] - 0.83) < 0.03
    assert stats["peak_mw"] < stats["rating_mw"]
