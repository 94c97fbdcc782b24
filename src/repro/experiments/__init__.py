"""Experiment harness: the paper's full evaluation grid and its artefacts.

* :mod:`repro.experiments.grid` — builds the test environment (survey ->
  medium partition -> scheduler), characterizes every mix, derives Table
  III budgets, and runs the policy x mix x budget grid of Figs. 7-8.
* :mod:`repro.experiments.metrics` — savings-vs-StaticCaps metrics with
  95 % CIs (the four Fig. 8 rows).
* :mod:`repro.experiments.figures` — data builders for every figure
  (Figs. 1-8).
* :mod:`repro.experiments.tables` — data builders for Tables I-III.
* :mod:`repro.experiments.takeaways` — machine-checked versions of the
  paper's four takeaways and lettered markers.
* :mod:`repro.experiments.ablations` — design-choice ablations beyond the
  paper (harvest fraction, step-4 weighting, characterization noise).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "grid": ("ExperimentConfig", "ExperimentGrid", "GridResults",
             "PreparedMix", "CellResult"),
    "metrics": ("PolicySavings", "savings_vs_baseline", "BUDGET_LEVELS"),
    "figures": ("fig1_facility_data", "fig2_phase_timeline",
                "fig3_roofline_data", "fig4_monitor_heatmap",
                "fig5_balancer_heatmap", "fig6_survey_data",
                "fig7_power_utilization", "fig8_savings_grid"),
    "tables": ("table1_system_properties", "table2_mixes", "table3_budgets"),
    "takeaways": ("check_takeaways", "TakeawayReport"),
    "sensitivity": ("BudgetSweepPoint", "budget_sweep",
                    "variation_sensitivity"),
    "facility_integration": ("SessionSegment", "SessionTrace",
                             "simulate_session"),
    "report": ("build_report", "write_report"),
    "robustness": ("TournamentResult", "TournamentRound", "policy_tournament"),
    "provisioning": ("ProvisioningCurve", "ProvisioningPoint",
                     "overprovisioning_curve"),
    "svg_figures": ("render_all_figures",),
})
