"""One-call reproduction report: every artefact in a single document.

:func:`build_report` runs the whole pipeline — survey, characterizations,
budgets, the full policy grid — and embeds every text artifact of
:mod:`repro.experiments.artifacts` verbatim, then the headline savings
and the run's telemetry.  It is what ``python -m repro report`` emits
and what a reviewer reads to audit the reproduction without running
anything else.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.grid import ExperimentGrid, GridResults
from repro.telemetry import TelemetrySummary

__all__ = ["build_report", "write_report"]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def build_report(grid: ExperimentGrid,
                 results: Optional[GridResults] = None) -> str:
    """Render the full reproduction report as Markdown.

    Passing pre-computed ``results`` avoids re-running the grid; otherwise
    the full grid is executed.
    """
    if results is None:
        results = grid.run_all()
    config = grid.config
    parts: List[str] = [
        "# Reproduction report — Wilson et al., IPDPS-W 2021\n\n"
        f"Scale: {config.survey_nodes}-node survey, "
        f"{config.nodes_per_job * config.jobs_per_mix}-node mixes "
        f"({config.jobs_per_mix} jobs x {config.nodes_per_job} nodes), "
        f"{config.iterations} iterations per job.\n"
    ]
    data = {}
    for artifact in ARTIFACTS:
        if artifact.svgs:
            continue
        data[artifact.name] = artifact.produce(grid, results)
        parts.append(_section(artifact.title,
                              artifact.render(data[artifact.name])))

    savings = data["fig8_savings_grid"].values()
    best_time = max(s.time_savings.mean for s in savings)
    best_energy = max(s.energy_savings.mean for s in savings)
    parts.append(
        "## Headlines\n\n"
        f"* Best time savings vs StaticCaps: **{100 * best_time:.1f} %** "
        "(paper: up to 7 %)\n"
        f"* Best energy savings vs StaticCaps: **{100 * best_energy:.1f} %** "
        "(paper: up to 11 %)\n"
        f"* All takeaway checks hold: **{data['takeaways'].all_hold()}**\n"
    )

    # Telemetry of the run that produced this report.
    summary = TelemetrySummary.capture()
    parts.append(_section("Telemetry", summary.render()))
    return "\n".join(parts)


def write_report(grid: ExperimentGrid, path: Union[str, Path],
                 results: Optional[GridResults] = None) -> Path:
    """Build the report and write it to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report(grid, results), encoding="utf-8")
    return path
