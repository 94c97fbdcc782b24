"""Hardware over-provisioning optimiser — the paper's opening trade-off.

§I: "Sizing a data center's power supply involves a trade-off between
peak performance of individual workloads, and the total number of hosts
available to run those workloads."  The paper's reference [7] (Patki et
al., ICS'13) showed that, for a fixed facility power budget, deploying
*more nodes than the budget can run at TDP* and capping them is often the
throughput-optimal configuration.

:func:`overprovisioning_curve` reproduces that analysis on this stack:
for a facility budget ``F`` and a representative workload, sweep the node
count ``N`` from the TDP-provisioned fleet (``F / TDP`` nodes, no caps)
to the floor-provisioned fleet (``F / floor`` nodes, maximum caps), and
compute fleet throughput at each point.

Finding (and an honest modelling note): with *throughput* workloads —
independent jobs, one per node, as in this analysis — over-provisioning
pays monotonically, because DVFS power grows super-linearly with
frequency: two capped nodes always out-produce one uncapped node of the
same total power.  The gain is far larger for memory-bound workloads
(whose performance barely depends on the cap) than compute-bound ones.
Interior optima of the kind Patki et al. report for *strong-scaled* single
applications arise from communication overheads that grow with node
count, which this fleet-parallel analysis deliberately excludes; the
takeaway for the paper's stack is unchanged — over-provisioned fleets
need exactly the budget-enforcing policies the paper proposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.sim.engine import ExecutionModel
from repro.units import ensure_positive
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig

__all__ = ["ProvisioningPoint", "ProvisioningCurve", "overprovisioning_curve"]


@dataclass(frozen=True)
class ProvisioningPoint:
    """One fleet size on the over-provisioning curve."""

    nodes: int
    cap_per_node_w: float
    per_node_gflops: float
    fleet_gflops: float


@dataclass(frozen=True)
class ProvisioningCurve:
    """The full sweep plus its optimum."""

    workload_label: str
    facility_budget_w: float
    points: Tuple[ProvisioningPoint, ...]

    def optimum(self) -> ProvisioningPoint:
        """The throughput-maximising fleet size."""
        return max(self.points, key=lambda p: p.fleet_gflops)

    def tdp_provisioned(self) -> ProvisioningPoint:
        """The smallest fleet (every node uncapped at TDP)."""
        return min(self.points, key=lambda p: p.nodes)

    def gain_over_tdp_provisioning(self) -> float:
        """Fractional throughput gain of the optimum over TDP sizing."""
        base = self.tdp_provisioned().fleet_gflops
        return self.optimum().fleet_gflops / base - 1.0


def overprovisioning_curve(
    config: KernelConfig,
    facility_budget_w: float,
    model: Optional[ExecutionModel] = None,
    points: int = 12,
) -> ProvisioningCurve:
    """Sweep fleet sizes under a fixed facility budget.

    Node counts are spaced between ``F / TDP`` (uncapped fleet) and
    ``F / floor`` (maximally capped fleet).  Per-node throughput at each
    cap comes from the calibrated execution model on a single-node job of
    the given configuration; fleet throughput is nodes x per-node rate —
    jobs are embarrassingly fleet-parallel in this analysis, as in the
    paper's reference study.  A budget that funds fewer than two fleet
    sizes with every cap at or above the floor raises ``ValueError``.
    """
    ensure_positive(facility_budget_w, "facility_budget_w")
    if points < 2:
        raise ValueError("a curve needs at least two points")
    model = model if model is not None else ExecutionModel()
    tdp = model.power_model.tdp_w
    floor = model.power_model.min_cap_w
    n_min = max(1, int(facility_budget_w // tdp))
    n_max = int(facility_budget_w // floor)
    if n_max < n_min + 1:
        raise ValueError(
            "facility_budget_w must fund two fleet sizes at or above the "
            f"{floor} W cap floor, got {facility_budget_w} W"
        )
    node_counts = np.unique(
        np.linspace(n_min, n_max, points).astype(int)
    )

    job = Job(name="prov", config=config, node_count=1, iterations=1)
    layout = WorkloadMix(name="prov", jobs=(job,)).layout()
    eff = np.ones(1)

    # The node-count sweep is one batched physics pass: every fleet size
    # is a scenario row of an (S, 1) cap matrix through the bound kernel
    # (identical per-point values to a scalar loop).
    caps = np.minimum(facility_budget_w / node_counts.astype(float), tdp)
    t = model.bind(layout, eff)(caps[:, np.newaxis])[2][:, 0]
    gflops = layout.gflop[0] / t if layout.gflop[0] > 0 else 1.0 / t
    curve: List[ProvisioningPoint] = [
        ProvisioningPoint(
            nodes=int(n),
            cap_per_node_w=float(cap),
            per_node_gflops=float(rate),
            fleet_gflops=float(rate) * int(n),
        )
        for n, cap, rate in zip(node_counts, caps, gflops)
    ]
    return ProvisioningCurve(
        workload_label=config.label(),
        facility_budget_w=float(facility_budget_w),
        points=tuple(curve),
    )
