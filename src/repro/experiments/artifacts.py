"""The paper's tracked artifacts: one registry, one rendering each.

Every file the reproduction keeps under ``benchmarks/output/`` — the
text tables of Figs. 1-8, Tables I-III, the takeaways, the extension
studies, and the SVG figure set — is one :class:`Artifact` in
:data:`ARTIFACTS`.  An entry names its file, produces its data from the
experiment grid and its results, and renders that data as the exact
text the file holds.  Paper constants that a rendering prints sit next
to its renderer.

``benchmarks/test_bench_paper.py`` writes every entry at paper scale and
holds each to the paper; :func:`repro.experiments.report.build_report`
embeds every text entry verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from repro.analysis.render import render_heatmap, render_series, render_table
from repro.core.registry import POLICY_NAMES, create_policy
from repro.experiments.ablations import (
    characterization_noise_sweep,
    harvest_fraction_sweep,
    step4_weighting_ablation,
)
from repro.experiments.figures import (
    fig1_facility_data,
    fig2_phase_timeline,
    fig3_roofline_data,
    fig4_monitor_heatmap,
    fig5_balancer_heatmap,
    fig6_survey_data,
    fig7_power_utilization,
    fig8_savings_grid,
)
from repro.experiments.grid import BUDGET_LEVELS, ExperimentGrid, GridResults
from repro.experiments.provisioning import overprovisioning_curve
from repro.experiments.robustness import policy_tournament
from repro.experiments.sensitivity import budget_sweep, variation_sensitivity
from repro.experiments.svg_figures import SVG_FILES, figure_documents
from repro.experiments.tables import (
    table1_system_properties,
    table2_mixes,
    table3_budgets,
)
from repro.experiments.takeaways import check_takeaways
from repro.manager.emergency import respond_to_budget_drop
from repro.sim.execution import SimulationOptions
from repro.workload.kernel import KernelConfig
from repro.workload.mixes import MIX_NAMES

__all__ = ["ARTIFACTS", "Artifact", "FIGURES_DIR", "OUTPUT_DIR"]

#: Where the artifacts live, relative to the repository root.
OUTPUT_DIR = "benchmarks/output"
FIGURES_DIR = f"{OUTPUT_DIR}/figures"

#: The dynamic policies Fig. 8 compares with StaticCaps.
DYNAMIC_POLICIES = ("MinimizeWaste", "JobAdaptive", "MixedAdaptive")


@dataclass(frozen=True)
class Artifact:
    """One tracked paper artifact.

    ``produce(grid, results)`` builds the data and ``render(data)`` the
    text of ``path``.  An entry with ``svgs`` (figure name -> SVG file
    in :data:`FIGURES_DIR`) also writes those figures; its data maps
    figure name -> SVG document.
    """

    name: str
    title: str
    produce: Callable[[ExperimentGrid, GridResults], Any]
    render: Callable[[Any], str]
    svgs: Mapping[str, str] = field(default_factory=dict)

    @property
    def path(self) -> str:
        """The text file, relative to the repository root."""
        return f"{OUTPUT_DIR}/{self.name}.txt"

    def outputs(self, data: Any) -> Dict[str, str]:
        """File path -> contents for everything this entry writes."""
        files = {self.path: self.render(data) + "\n"}
        for name, file in self.svgs.items():
            files[f"{FIGURES_DIR}/{file}"] = data[name]
        return files


def _pct(value: float) -> str:
    return f"{value:+.1f}%"


# ----------------------------------------------------------------------
# The paper's figures and tables
# ----------------------------------------------------------------------
#: Table I as the paper prints it.
PAPER_TABLE1 = {
    "CPU": "Intel Xeon E5-2695, dual-socket",
    "Cores Per Node": "36",
    "Thermal Design Power": "120 W per CPU socket",
    "Minimum RAPL Limit": "68 W per CPU socket",
    "Base Frequency": "2.1 GHz",
}


def _render_table1(table: Dict[str, str]) -> str:
    rows = [[k, table[k], PAPER_TABLE1[k]] for k in PAPER_TABLE1]
    return render_table(["property", "reproduced", "paper"], rows,
                        title="Table I — Quartz system properties")


def _render_fig1(data: Dict[str, Any]) -> str:
    stats = data["statistics"]
    rows = [
        ["Peak power rating", f"{stats['rating_mw']:.2f} MW", "1.35 MW"],
        ["Mean draw", f"{stats['mean_mw']:.2f} MW", "~0.83 MW"],
        ["Mean 1-day average", f"{stats['mean_daily_average_mw']:.2f} MW", "~0.83 MW"],
        ["Peak draw", f"{stats['peak_mw']:.2f} MW", "< rating"],
        ["Mean utilisation", f"{stats['mean_utilization']:.0%}", "~61%"],
        ["Stranded capacity", f"{stats['stranded_power_mw']:.2f} MW", "~0.52 MW"],
    ]
    return render_table(["quantity", "reproduced", "paper"], rows,
                        title="Fig. 1 — Quartz facility power (synthetic trace)")


#: Fig. 2's configuration: 8 FLOPs/byte, half the ranks waiting at 2x.
FIG2_CONFIG = KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2)


def _render_fig2(data: Dict[str, float]) -> str:
    slack_fraction = data["slack_time_s"] / data["iteration_time_s"]
    rows = [
        ["Iteration (critical path)", f"{1e3 * data['iteration_time_s']:.1f} ms"],
        ["Common work (waiting ranks)", f"{1e3 * data['common_work_time_s']:.1f} ms"],
        ["Slack / polling phase", f"{1e3 * data['slack_time_s']:.1f} ms"],
        ["Slack fraction", f"{slack_fraction:.0%}"],
        ["Waiting ranks", f"{data['waiting_fraction']:.0%}"],
        ["Imbalance", f"{data['imbalance']:.0f}x"],
    ]
    return render_table(["interval", "reproduced"], rows,
                        title="Fig. 2 — synthetic kernel iteration anatomy "
                              "(8 FLOPs/byte, 50% waiting at 2x)")


def _render_fig3(data: Dict[str, Any]) -> str:
    return render_series(
        data["kernel_intensity"].tolist(),
        {"achieved_gflops": data["kernel_gflops"].tolist()},
        title=(
            "Fig. 3 — kernel operating points on the Advisor roofline\n"
            "ceilings: DRAM 12.44 GB/s | L3 35.18 | L2 84.5 | L1 314.65 GB/s;\n"
            "DP vector FMA 38.49 GFLOPS (paper values)"
        ),
        x_label="intensity",
    )


def _heatmap_renderer(title: str) -> Callable[[Any], str]:
    def render(heatmap) -> str:
        return render_heatmap([f"{i:g}" for i in heatmap.intensities],
                              heatmap.column_labels(), heatmap.values, title=title)
    return render


#: Fig. 6's cluster populations as the paper prints them.
PAPER_FIG6_COUNTS = {"low": 522, "medium": 918, "high": 560}


def _render_fig6(data: Dict[str, Any]) -> str:
    rows = []
    for name, paper_count in PAPER_FIG6_COUNTS.items():
        c = data["clusters"][name]
        rows.append([name, c["count"], paper_count, f"{c['mean_ghz']:.2f}",
                     f"{c['min_ghz']:.2f}-{c['max_ghz']:.2f}"])
    return render_table(
        ["cluster", "n (repro)", "n (paper)", "mean GHz", "range GHz"], rows,
        title="Fig. 6 — node frequency clusters under 70 W/socket caps",
    )


def _render_table2(rows: List[Dict[str, Any]]) -> str:
    table_rows = [
        [r["mix"], f"{r['intensity_flop_per_byte']:g}", r["vector"],
         f"{r['waiting_pct']}%", f"{r['imbalance']}x", r["nodes"]]
        for r in rows
    ]
    return render_table(
        ["mix", "FLOPs/byte", "vector", "waiting", "imbalance", "nodes"], table_rows,
        title="Table II — workloads in each workload mix",
    )


#: Table III as the paper prints it: (min, ideal, max) kW per mix.
PAPER_TABLE3 = {
    "NeedUsedPower": (167, 171, 209),
    "HighImbalance": (141, 163, 209),
    "WastefulPower": (136, 144, 209),
    "LowPower": (138, 152, 209),
    "HighPower": (140, 177, 209),
    "RandomLarge": (139, 164, 209),
}
#: Table III's footnote: the TDP of all CPUs, in kW.
PAPER_TDP_KW = 216


def _render_table3(rows: List[Dict[str, Any]]) -> str:
    table_rows = []
    for row in rows:
        paper = PAPER_TABLE3[row["mix"]]
        table_rows.append([
            row["mix"],
            f"{row['min_kw']:.0f} ({paper[0]})",
            f"{row['ideal_kw']:.0f} ({paper[1]})",
            f"{row['max_kw']:.0f} ({paper[2]})",
            f"{row['total_tdp_kw']:.0f} ({PAPER_TDP_KW})",
        ])
    return render_table(
        ["mix", "min kW (paper)", "ideal kW (paper)", "max kW (paper)",
         "TDP kW (paper)"],
        table_rows, title="Table III — power budgets for each workload mix",
    )


def _render_fig7(util: Dict[str, Dict[str, Dict[str, float]]]) -> str:
    rows = [[mix, level] + [f"{util[mix][level][p]:.0%}" for p in POLICY_NAMES]
            for mix in MIX_NAMES for level in BUDGET_LEVELS]
    return render_table(["mix", "budget"] + list(POLICY_NAMES), rows,
                        title="Fig. 7 — mean power used (percent of system budget)")


def _render_fig8(grid: Dict[Tuple[str, str, str], Any]) -> str:
    rows = []
    for mix in MIX_NAMES:
        for level in BUDGET_LEVELS:
            for policy in DYNAMIC_POLICIES:
                s = grid[(mix, level, policy)]
                rows.append([
                    mix, level, policy,
                    f"{100 * s.time_savings.mean:+.1f}"
                    f"±{100 * s.time_savings.half_width:.1f}",
                    f"{100 * s.energy_savings.mean:+.1f}"
                    f"±{100 * s.energy_savings.half_width:.1f}",
                    f"{100 * s.edp_savings.mean:+.1f}",
                    f"{100 * s.flops_per_watt_increase.mean:+.1f}",
                ])
    return render_table(
        ["mix", "budget", "policy", "time %", "energy %", "EDP %", "FLOPS/W %"], rows,
        title="Fig. 8 — savings vs StaticCaps (mean ± 95% CI over 100 iters)",
    )


def _render_takeaways(report) -> str:
    rows = [["PASS" if ok else "FAIL", name, report.evidence[name]]
            for name, ok in report.checks.items()]
    return render_table(["status", "check", "evidence"], rows,
                        title="Paper takeaways and markers, checked at paper scale")


# ----------------------------------------------------------------------
# Extensions beyond the paper's grid
# ----------------------------------------------------------------------
def _render_budget_sweep(points) -> str:
    by_budget: Dict[float, Dict[str, Any]] = {}
    for p in points:
        by_budget.setdefault(p.budget_per_node_w, {})[p.policy_name] = p
    rows = []
    for per_node in sorted(by_budget):
        mixed = by_budget[per_node]["MixedAdaptive"]
        static = by_budget[per_node]["StaticCaps"]
        rows.append([f"{per_node:.0f}", f"{static.utilization:.0%}",
                     f"{mixed.utilization:.0%}", _pct(mixed.time_savings_pct),
                     _pct(mixed.energy_savings_pct)])
    return render_table(
        ["W/node", "StaticCaps util", "MixedAdaptive util", "time savings",
         "energy savings"],
        rows, title="Budget sweep on WastefulPower (MixedAdaptive vs StaticCaps)",
    )


def _render_variation(outcomes: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for name in ("high", "medium", "novariation", "low"):
        o = outcomes[name]
        rows.append([name, f"{o['mean_efficiency']:.3f}",
                     f"{o['mean_elapsed_s']:.2f} s",
                     f"{o['total_energy_j'] / 1e6:.2f} MJ"])
    return render_table(["partition", "mean efficiency", "mean elapsed", "energy"],
                        rows, title="Variation sensitivity: RandomLarge @ 180 W/node, "
                                    "MixedAdaptive")


#: The emergency drill: these mixes drop from max to min under each policy.
EMERGENCY_MIXES = ("WastefulPower", "HighPower", "RandomLarge")
EMERGENCY_POLICIES = ("StaticCaps", "MixedAdaptive")


def _emergency_drill(grid: ExperimentGrid, results: GridResults):
    out = {}
    for mix_name in EMERGENCY_MIXES:
        prepared = grid.prepare_mix(mix_name)
        for policy_name in EMERGENCY_POLICIES:
            out[(mix_name, policy_name)] = respond_to_budget_drop(
                prepared.scheduled, prepared.characterization,
                create_policy(policy_name),
                old_budget_w=prepared.budgets.max_w,
                new_budget_w=prepared.budgets.min_w,
                model=grid.model,
                options=SimulationOptions(noise_std=0.0),
            )
    return out


def _render_emergency(responses) -> str:
    rows = []
    for (mix_name, policy_name), response in responses.items():
        impact = response.qos_impact()
        rows.append([mix_name, policy_name,
                     f"{100 * impact['clamp_slowdown']:.1f}%",
                     f"{100 * impact['replanned_slowdown']:.1f}%",
                     f"{100 * impact['recovered']:.0f}%"])
    return render_table(
        ["mix", "policy", "clamp slowdown", "replanned slowdown", "penalty recovered"],
        rows, title="Emergency budget drop (max -> min): two-stage response",
    )


def _render_tournament(result) -> str:
    time_wins, energy_wins = result.win_counts("time"), result.win_counts("energy")
    time_means = result.mean_savings_pct("time")
    energy_means = result.mean_savings_pct("energy")
    rows = [[name, time_wins[name], _pct(time_means[name]),
             energy_wins[name], _pct(energy_means[name])]
            for name in DYNAMIC_POLICIES]
    return render_table(
        ["policy", "time wins", "mean time savings", "energy wins",
         "mean energy savings"],
        rows, title="Tournament over 12 random mixes (ideal budgets, vs StaticCaps)",
    )


#: The over-provisioning facility: Table III's footnote TDP of all CPUs.
FACILITY_W = PAPER_TDP_KW * 1e3


def _provisioning(grid: ExperimentGrid, results: GridResults):
    """(compute-bound, memory-bound) fleet curves at FACILITY_W."""
    return tuple(
        overprovisioning_curve(KernelConfig(intensity=i), FACILITY_W, points=12)
        for i in (32.0, 0.25)
    )


def _render_provisioning(curves) -> str:
    cpu_curve, mem_curve = curves
    rows = [[cpu.nodes, f"{cpu.cap_per_node_w:.0f} W", f"{cpu.fleet_gflops / 1e3:.1f}",
             f"{mem.fleet_gflops / 1e3:.1f}"]
            for cpu, mem in zip(cpu_curve.points, mem_curve.points)]
    return render_table(
        ["nodes", "cap/node", "compute-bound TFLOPS", "memory-bound TFLOPS"], rows,
        title=f"Fleet throughput at a fixed {FACILITY_W / 1e3:.0f} kW facility budget",
    )


def _sweep_renderer(header: str, fmt: str, title: str) -> Callable[[Any], str]:
    def render(points) -> str:
        rows = [[fmt.format(p.value), _pct(p.time_savings_pct),
                 _pct(p.energy_savings_pct)] for p in points]
        return render_table([header, "time savings", "energy savings"], rows,
                            title=title)
    return render


def _render_step4(out) -> str:
    rows = [[level, variant, _pct(t), _pct(e)]
            for level, variants in out.items()
            for variant, (t, e) in variants.items()]
    return render_table(["budget", "step-4 surplus", "time savings", "energy savings"],
                        rows, title="Ablation — MixedAdaptive step-4 weighting "
                                    "(WastefulPower)")


def _render_svg_list(docs: Dict[str, str]) -> str:
    return "\n".join(f"{name}: {FIGURES_DIR}/{SVG_FILES[name]}"
                     for name in sorted(docs))


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
#: Every tracked artifact, in the paper's order, then the extensions.
ARTIFACTS: Tuple[Artifact, ...] = (
    Artifact("table1_system_properties", "Table I — system properties",
             lambda grid, results: table1_system_properties(), _render_table1),
    Artifact("fig1_facility_trace", "Fig. 1 — facility power",
             lambda grid, results: fig1_facility_data(), _render_fig1),
    Artifact("fig2_kernel_anatomy", "Fig. 2 — kernel iteration anatomy",
             lambda grid, results: fig2_phase_timeline(FIG2_CONFIG), _render_fig2),
    Artifact("fig3_roofline", "Fig. 3 — roofline",
             lambda grid, results: fig3_roofline_data(), _render_fig3),
    Artifact("fig4_monitor_power", "Fig. 4 — uncapped power per node",
             lambda grid, results: fig4_monitor_heatmap(grid, test_nodes=100),
             _heatmap_renderer("Fig. 4 — uncapped CPU power per node, ymm (W); "
                               "paper range 209-232 W")),
    Artifact("fig5_balancer_power", "Fig. 5 — needed power per node",
             lambda grid, results: fig5_balancer_heatmap(grid, test_nodes=100),
             _heatmap_renderer("Fig. 5 — needed CPU power per node, ymm (W); "
                               "paper range 186-222 W")),
    Artifact("fig6_node_clusters", "Fig. 6 — variation survey",
             lambda grid, results: fig6_survey_data(grid), _render_fig6),
    Artifact("table2_mixes", "Table II — workload mixes",
             lambda grid, results: table2_mixes(grid), _render_table2),
    Artifact("table3_budgets", "Table III — power budgets",
             lambda grid, results: table3_budgets(grid), _render_table3),
    Artifact("fig7_power_utilization", "Fig. 7 — budget utilisation",
             lambda grid, results: fig7_power_utilization(results), _render_fig7),
    Artifact("fig8_savings_grid", "Fig. 8 — savings vs StaticCaps",
             lambda grid, results: fig8_savings_grid(results), _render_fig8),
    Artifact("takeaways", "Takeaways and markers",
             lambda grid, results: check_takeaways(results), _render_takeaways),
    Artifact("budget_sweep", "Budget sweep",
             lambda grid, results: budget_sweep(grid, mix_name="WastefulPower",
                                                points=9),
             _render_budget_sweep),
    Artifact("variation_study", "Hardware-variation study",
             lambda grid, results: variation_sensitivity(
                 nodes_per_job=10, survey_nodes=1200, budget_per_node_w=180.0),
             _render_variation),
    Artifact("emergency_response", "Emergency budget drop",
             _emergency_drill, _render_emergency),
    Artifact("robustness_tournament", "Policy tournament",
             lambda grid, results: policy_tournament(
                 rounds=12, nodes_per_job=10, iterations=30),
             _render_tournament),
    Artifact("provisioning_curve", "Over-provisioning curve",
             _provisioning, _render_provisioning),
    Artifact("ablation_harvest_fraction", "Ablation — harvest fraction",
             lambda grid, results: harvest_fraction_sweep(
                 grid, fractions=(0.25, 0.5, 0.75, 1.0)),
             _sweep_renderer("harvest fraction", "{:.2f}",
                             "Ablation — balancer aggressiveness (WastefulPower "
                             "@ max budget, MixedAdaptive vs StaticCaps)")),
    Artifact("ablation_step4_weighting", "Ablation — step-4 weighting",
             lambda grid, results: step4_weighting_ablation(grid), _render_step4),
    Artifact("ablation_characterization_noise", "Ablation — characterization noise",
             lambda grid, results: characterization_noise_sweep(
                 grid, noise_levels=(0.0, 0.02, 0.05, 0.10)),
             _sweep_renderer("characterization noise", "{:.0%}",
                             "Ablation — policy robustness to characterization "
                             "error (RandomLarge @ ideal budget, MixedAdaptive)")),
    Artifact("svg_figures", "SVG figures",
             lambda grid, results: figure_documents(grid, results, heatmap_nodes=100),
             _render_svg_list, svgs=SVG_FILES),
)
