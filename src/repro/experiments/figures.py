"""Data builders for every figure in the paper.

Each ``figN_*`` function returns plain dict/array data carrying exactly
the rows or series the corresponding figure plots; the benchmark harness
renders them with :mod:`repro.analysis.render`.  Keeping figures as *data*
(rather than plots) makes the reproduction assertable in tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.balancer_runs import balancer_heatmap
from repro.characterization.monitor_runs import HeatmapGrid, monitor_heatmap
from repro.experiments.grid import ExperimentGrid, GridResults
from repro.experiments.metrics import PolicySavings, savings_grid
from repro.hardware.roofline import ADVISOR_SINGLE_CORE_ROOFLINE, RooflineModel
from repro.sim.engine import ExecutionModel
from repro.workload.facility import (
    FacilityTraceConfig,
    generate_facility_trace,
)
from repro.workload.kernel import KernelConfig, VectorWidth

__all__ = [
    "fig1_facility_data",
    "fig2_phase_timeline",
    "fig3_roofline_data",
    "fig4_monitor_heatmap",
    "fig5_balancer_heatmap",
    "fig6_survey_data",
    "fig7_power_utilization",
    "fig8_savings_grid",
]


# ----------------------------------------------------------------------
# Fig. 1 — facility power over a year vs the 1.35 MW rating
# ----------------------------------------------------------------------
def fig1_facility_data(
    config: Optional[FacilityTraceConfig] = None,
) -> Dict[str, object]:
    """Trace, moving average, and the utilisation statistics of Fig. 1."""
    trace = generate_facility_trace(config)
    return {
        "trace": trace,
        "statistics": trace.statistics(),
    }


# ----------------------------------------------------------------------
# Fig. 2 — anatomy of one kernel iteration
# ----------------------------------------------------------------------
def fig2_phase_timeline(
    config: Optional[KernelConfig] = None,
    model: Optional[ExecutionModel] = None,
) -> Dict[str, float]:
    """Compute/slack phase split of one iteration (Fig. 2's schematic).

    Returns the unconstrained iteration time, the non-critical hosts'
    compute time, and the slack they spend polling — the three intervals
    the figure sketches.
    """
    from repro.workload.job import Job, WorkloadMix

    if config is None:
        config = KernelConfig(
            intensity=8.0, waiting_fraction=0.5, imbalance=2
        )
    model = model if model is not None else ExecutionModel()
    job = Job(name="fig2", config=config, node_count=4, iterations=1)
    mix = WorkloadMix(name="fig2", jobs=(job,))
    layout = mix.layout()
    eff = np.ones(layout.host_count)
    caps = np.full(layout.host_count, model.power_model.tdp_w)
    times = model.bind(layout, eff)(caps)[2]
    critical_time = float(times[layout.critical].max())
    waiting_time = float(times[~layout.critical].max()) if np.any(~layout.critical) else critical_time
    return {
        "iteration_time_s": critical_time,
        "common_work_time_s": waiting_time,
        "slack_time_s": critical_time - waiting_time,
        "waiting_fraction": config.waiting_fraction,
        "imbalance": float(config.imbalance),
    }


# ----------------------------------------------------------------------
# Fig. 3 — roofline of the synthetic kernel
# ----------------------------------------------------------------------
def fig3_roofline_data(
    roofline: RooflineModel = ADVISOR_SINGLE_CORE_ROOFLINE,
    intensities: Optional[Sequence[float]] = None,
) -> Dict[str, np.ndarray]:
    """Roofline envelope plus kernel operating points (Fig. 3).

    The kernel's achieved GFLOPS at each configured intensity should hug
    the attainable envelope — DRAM-bound on the left, vector-FMA-bound on
    the right — which is how the paper verifies the kernel "covers the
    full spectrum of achievable throughput".
    """
    if intensities is None:
        intensities = np.geomspace(0.007, 40.0, 49)
    intensities = np.asarray(intensities, dtype=float)
    series = roofline.as_plot_series("dp_vector_fma", intensities)
    kernel_points = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    achieved = roofline.attainable_gflops(kernel_points, "dp_vector_fma")
    return {
        "intensity": intensities,
        **series,
        "kernel_intensity": kernel_points,
        "kernel_gflops": achieved,
    }


# ----------------------------------------------------------------------
# Figs. 4 / 5 — characterization heat maps
# ----------------------------------------------------------------------
def fig4_monitor_heatmap(grid: ExperimentGrid, test_nodes: int = 100) -> HeatmapGrid:
    """Uncapped power heat map (Fig. 4) on the experiment's partition."""
    ids = np.arange(min(test_nodes, len(grid.partition)))
    return monitor_heatmap(grid.partition, ids, VectorWidth.YMM, model=grid.model)


def fig5_balancer_heatmap(grid: ExperimentGrid, test_nodes: int = 100) -> HeatmapGrid:
    """Balancer needed-power heat map (Fig. 5) on the same nodes."""
    ids = np.arange(min(test_nodes, len(grid.partition)))
    return balancer_heatmap(grid.partition, ids, VectorWidth.YMM, model=grid.model)


# ----------------------------------------------------------------------
# Fig. 6 — hardware-variation survey
# ----------------------------------------------------------------------
def fig6_survey_data(grid: ExperimentGrid) -> Dict[str, object]:
    """Cluster sizes, centroids, and per-cluster frequency spreads."""
    survey = grid.survey
    spreads = {}
    for name in ("low", "medium", "high"):
        freqs = survey.frequencies_ghz[survey.cluster_node_ids(name)]
        spreads[name] = {
            "count": int(freqs.size),
            "mean_ghz": float(freqs.mean()),
            "min_ghz": float(freqs.min()),
            "max_ghz": float(freqs.max()),
        }
    return {
        "cap_w": survey.cap_w,
        "centroids_ghz": survey.centroids_ghz.tolist(),
        "clusters": spreads,
    }


# ----------------------------------------------------------------------
# Fig. 7 — power utilisation per policy x mix x budget
# ----------------------------------------------------------------------
def fig7_power_utilization(results: GridResults) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Mean used power as a fraction of the budget (Fig. 7 bars).

    Returns ``{mix: {level: {policy: utilisation}}}``; values above 1.0
    mean the policy exceeded the system budget (Precharacterized's
    signature failure mode).
    """
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for (mix, level, policy), cell in sorted(results.cells.items()):
        out.setdefault(mix, {}).setdefault(level, {})[policy] = (
            cell.run.result.budget_utilization()
        )
    return out


# ----------------------------------------------------------------------
# Fig. 8 — savings grid
# ----------------------------------------------------------------------
def fig8_savings_grid(results: GridResults) -> Dict[Tuple[str, str, str], PolicySavings]:
    """The four savings metrics vs StaticCaps for every dynamic policy."""
    return savings_grid(results)
