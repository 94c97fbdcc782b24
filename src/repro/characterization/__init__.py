"""Pre-characterization pipeline: the paper's §IV-B / §V-C inputs.

The paper emulates an execution-time feedback loop between the job runtime
and the resource manager by *pre-characterizing* every workload (§VIII:
"we emulated this execution time behavior by pre-characterizing our
workloads and determining the steady-state power management properties
ahead of time").  This subpackage performs that pipeline:

* :mod:`.monitor_runs` — metric (a): maximum (unconstrained) power per
  workload, via monitor-agent runs (Fig. 4 heat map).
* :mod:`.balancer_runs` — metric (b): minimum power each workload needs,
  via power-balancer steady states (Fig. 5 heat map), with both the
  analytic fast path and the feedback-loop slow path.
* :mod:`.clustering` — the Fig. 6 hardware-variation survey: achieved
  frequency of every node under a low cap, k-means partitioned into
  low/medium/high clusters; experiments use the medium cluster.
* :mod:`.budgets` — Table III: the min/ideal/max system power budgets
  derived per mix from the two characterizations.
* :mod:`.mix_characterization` — the bundle of per-host arrays
  (observed power, needed power/cap) every policy consumes.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "mix_characterization": ("MixCharacterization", "characterize_mix"),
    "monitor_runs": ("monitor_heatmap", "monitor_heatmap_runtime",
                     "monitor_power_for_config", "HeatmapGrid"),
    "balancer_runs": ("balancer_heatmap", "balancer_heatmap_runtime",
                      "balancer_power_for_config", "needed_caps_for_job"),
    "clustering": ("kmeans_1d", "survey_and_cluster", "FrequencySurvey"),
    "budgets": ("PowerBudgets", "derive_budgets"),
})
