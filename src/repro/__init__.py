"""repro — a unified HPC power-management stack, reproduced in simulation.

This package reproduces *"Introducing Application Awareness Into a Unified
Power Management Stack"* (Wilson et al., IPDPS Workshops 2021): a resource
manager and a GEOPM-style job runtime integrated through shared power
characterization, evaluated over five power-management policies, six
workload mixes, and three over-provisioning levels on a simulated
LLNL-Quartz-like cluster.

Quick start::

    from repro import ExperimentConfig, ExperimentGrid, check_takeaways

    grid = ExperimentGrid(ExperimentConfig.small())
    results = grid.run_all()
    report = check_takeaways(results)
    assert report.all_hold()

Layers (bottom-up):

* :mod:`repro.hardware` — CPU and node power/frequency models (RAPL as
  its cap range), roofline ceilings, manufacturing variation, cluster.
* :mod:`repro.workload` — the synthetic arithmetic-intensity kernel, jobs,
  the six Table II mixes, the Fig. 1 facility trace.
* :mod:`repro.sim` — vectorised bulk-synchronous execution engine.
* :mod:`repro.runtime` — GEOPM-style agents (monitor, governor, power
  balancer) and the per-job controller.
* :mod:`repro.characterization` — monitor/balancer characterization
  (Figs. 4-5), variation survey (Fig. 6), budget derivation (Table III).
* :mod:`repro.core` — the five policies (the paper's contribution).
* :mod:`repro.manager` — resource manager: queue, scheduler, power
  manager.
* :mod:`repro.experiments` — the full evaluation grid, metrics, figure
  and table builders, takeaway checks, ablations.
* :mod:`repro.analysis` — statistics, ASCII rendering, CSV export.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core": ("JobAdaptivePolicy", "MinimizeWastePolicy", "MixedAdaptivePolicy",
             "POLICY_NAMES", "Policy", "PrecharacterizedPolicy",
             "StaticCapsPolicy", "create_policy", "default_policies"),
    "experiments": ("ExperimentConfig", "ExperimentGrid", "GridResults",
                    "check_takeaways", "savings_vs_baseline"),
    "workload": ("KernelConfig", "MixBuilder", "VectorWidth", "MIX_NAMES"),
})
__all__.append("__version__")
