"""Hardware substrate: CPU and node power models, variation, cluster, roofline.

This subpackage simulates the pieces of the LLNL Quartz platform the paper's
power-management stack interacts with (Table I of the paper):

* :mod:`repro.hardware.cpu` — per-socket frequency/power model for the
  dual-socket Intel Xeon E5-2695 nodes (120 W TDP, 68 W RAPL floor,
  2.1 GHz base frequency).
* :mod:`repro.hardware.roofline` — roofline throughput model (Williams et
  al.) with the ceilings reported in the paper's Fig. 3 plus node-level
  ceilings used by the simulator.
* :mod:`repro.hardware.variation` — manufacturing variation model producing
  the low/medium/high frequency clusters of the paper's Fig. 6.
* :mod:`repro.hardware.node` / :mod:`repro.hardware.cluster` — the
  vectorised node-level power model and the cluster (a flat array of
  per-node variation multipliers) used by the resource manager.

The paper's policies touch the machine only through RAPL node caps.  The
simulator models RAPL as its settable range: caps are clamped into
[floor, TDP] by :meth:`NodePowerModel.clamp_cap` (and the same clip in
:meth:`~repro.core.policy.Policy.allocate`) when planning and by
:class:`~repro.sim.engine.BoundEpoch` when executing.  PL1 quantisation
(1/8 W per socket) and energy-counter wraparound are not modelled.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cpu": ("CpuSpec", "SocketPowerModel", "QUARTZ_CPU"),
    "roofline": ("RooflineModel", "ADVISOR_SINGLE_CORE_ROOFLINE",
                 "NODE_LEVEL_ROOFLINE"),
    "variation": ("VariationModel", "QUARTZ_VARIATION"),
    "node": ("NodePowerModel",),
    "cluster": ("Cluster",),
})
