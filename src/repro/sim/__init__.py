"""Execution simulator: runs workload mixes under per-host power caps.

The engine is iteration-level and fully vectorised: a 900-node mix over 100
bulk-synchronous iterations is a handful of NumPy array operations, which
keeps the full policy x mix x budget evaluation grid of the paper's Figs.
7-8 at interactive speed.

* :mod:`repro.sim.engine` — the physics: cap -> frequency -> phase time ->
  power, plus the inverse map (time target -> required frequency/power)
  the power balancer relies on.
* :mod:`repro.sim.execution` — the BSP loop: per-iteration job times via
  segmented maxima, barrier slack, per-host energy accounting, measurement
  noise for confidence intervals.
* :mod:`repro.sim.batch` — the scenario axis: an ``(S, hosts)`` cap matrix
  evaluated in one engine pass, bit-identical to ``S`` serial runs.
* :mod:`repro.sim.results` — result containers with derived metrics
  (elapsed time, energy, EDP, FLOPS/W, per-host mean power).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "batch": ("LayoutBatch", "simulate_cap_batch", "stack_layouts"),
    "engine": ("ExecutionModel",),
    "execution": ("simulate_mix", "SimulationOptions"),
    "results": ("MixRunResult",),
})
