"""Render the paper's figures as SVG files.

:func:`render_all_figures` regenerates the graphical figures — the Fig. 1
trace, the Fig. 4/5 heat maps, Fig. 6's cluster view, and the Fig. 7/8
bar grids — as self-contained SVG documents, using only the pure-Python
renderer in :mod:`repro.analysis.svg`.  Exposed on the CLI as
``python -m repro figures -o DIR``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union


from repro.analysis.svg import (
    grouped_bar_chart,
    heatmap_chart,
    line_chart,
    write_svg,
)
from repro.experiments.figures import (
    fig4_monitor_heatmap,
    fig5_balancer_heatmap,
    fig7_power_utilization,
)
from repro.experiments.grid import ExperimentGrid, GridResults
from repro.experiments.metrics import savings_grid
from repro.workload.facility import generate_facility_trace
from repro.workload.mixes import MIX_NAMES

__all__ = ["SVG_FILES", "figure_documents", "render_all_figures"]


def _fig1_svg() -> str:
    trace = generate_facility_trace()
    # Down-sample the 5-minute series for a legible line.
    stride = max(1, trace.power_mw.size // 2000)
    return line_chart(
        trace.time_days[::stride],
        {
            "instantaneous": trace.power_mw[::stride],
            "1-day average": trace.daily_average_mw[::stride],
        },
        title="Fig. 1 — facility power (synthetic Quartz trace)",
        x_label="day",
        y_label="power (MW)",
        h_lines={"rating 1.35 MW": trace.config.rating_mw},
    )


def _heatmap_svg(heatmap, figure_name: str) -> str:
    return heatmap_chart(
        [f"{i:g}" for i in heatmap.intensities],
        list(heatmap.column_labels()),
        heatmap.values,
        title=f"{figure_name} — {heatmap.title}",
        unit="W per node",
    )


def _fig7_svg(results: GridResults, level: str) -> str:
    util = fig7_power_utilization(results)
    mixes = [m for m in MIX_NAMES if m in util]
    policies = sorted({p for m in util.values() for p in m[level]})
    series = {
        policy: [100.0 * util[mix][level][policy] for mix in mixes]
        for policy in policies
    }
    return grouped_bar_chart(
        mixes, series,
        title=f"Fig. 7 — power used, {level} budget (% of budget)",
        y_label="% of system budget",
    )


def _fig8_svg(results: GridResults, metric: str, label: str) -> str:
    savings = savings_grid(results)
    mixes = sorted({k[0] for k in savings}, key=lambda m: MIX_NAMES.index(m))
    policies = ("MinimizeWaste", "JobAdaptive", "MixedAdaptive")
    series: Dict[str, List[float]] = {}
    for policy in policies:
        values = []
        for mix in mixes:
            cell = [
                getattr(savings[(mix, lvl, policy)], metric).mean
                for lvl in ("min", "ideal", "max")
                if (mix, lvl, policy) in savings
            ]
            values.append(100.0 * max(cell))
        series[policy] = values
    return grouped_bar_chart(
        mixes, series,
        title=f"Fig. 8 — best {label} vs StaticCaps, by mix",
        y_label=f"{label} (%)",
    )


#: Figure name -> the SVG file it is written to.
SVG_FILES = {
    "fig1": "fig1_facility.svg",
    "fig4": "fig4_monitor_power.svg",
    "fig5": "fig5_balancer_power.svg",
    **{f"fig7_{level}": f"fig7_utilization_{level}.svg"
       for level in ("min", "ideal", "max")},
    "fig8_time": "fig8_time_savings.svg",
    "fig8_energy": "fig8_energy_savings.svg",
}


def figure_documents(
    grid: ExperimentGrid,
    results: Optional[GridResults] = None,
    heatmap_nodes: int = 50,
) -> Dict[str, str]:
    """Every SVG figure as a document; returns name -> SVG text."""
    if results is None:
        results = grid.run_all()
    docs = {
        "fig1": _fig1_svg(),
        "fig4": _heatmap_svg(fig4_monitor_heatmap(grid, heatmap_nodes),
                             "Fig. 4"),
        "fig5": _heatmap_svg(fig5_balancer_heatmap(grid, heatmap_nodes),
                             "Fig. 5"),
    }
    for level in ("min", "ideal", "max"):
        docs[f"fig7_{level}"] = _fig7_svg(results, level)
    docs["fig8_time"] = _fig8_svg(results, "time_savings", "time savings")
    docs["fig8_energy"] = _fig8_svg(results, "energy_savings",
                                    "energy savings")
    return docs


def render_all_figures(
    grid: ExperimentGrid,
    output_dir: Union[str, Path],
    results: Optional[GridResults] = None,
    heatmap_nodes: int = 50,
) -> Dict[str, Path]:
    """Write every SVG figure into ``output_dir``; returns name -> path."""
    output_dir = Path(output_dir)
    docs = figure_documents(grid, results, heatmap_nodes)
    return {name: write_svg(svg, output_dir / SVG_FILES[name])
            for name, svg in docs.items()}
