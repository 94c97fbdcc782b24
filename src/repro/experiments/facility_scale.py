"""Facility-scale campaign: 50k–100k nodes in one command.

The campaign wrapper around :mod:`repro.hierarchy`: it synthesises a
whole facility — 8–64 clusters with mixed procurement weights,
priorities, and a few local feeder-limit fault schedules — drives the
top-level budget from the Fig. 1 synthetic trace, and runs every
cluster's site simulation on the fused facility engine (split into
worker groups when ``workers`` > 1).  The shape echoes
:mod:`repro.experiments.facility_integration`: where that module builds
the Fig. 1-style dashboard for one cluster session, this one builds it
for the facility tree.

Everything is deterministic given the config (the hierarchy's
determinism contract), so campaign results are comparable across hosts
and worker counts; the ``facility-sim`` CLI subcommand, the
``facility_campaign`` benchmark cell and the ``facility`` workload of
``bench/run.py`` are all thin callers of :func:`run_facility_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.schedule import FaultSchedule
from repro.hardware.cluster import QUARTZ_CPU
from repro.hardware.node import NodePowerModel
from repro.hierarchy import (
    ClusterSpec,
    FacilityConfig,
    FacilitySimulationResult,
    run_facility_simulation,
)
from repro.units import ensure_positive
from repro.workload.facility import FacilityTraceConfig

__all__ = [
    "FacilityCampaignConfig",
    "build_facility_config",
    "campaign_rows",
    "run_facility_campaign",
]


@dataclass(frozen=True)
class FacilityCampaignConfig:
    """Knobs of the standard facility campaign.

    The defaults simulate 51 200 nodes (16 clusters x 3 200) over one
    hour of facility time with five-minute rebalance windows — the
    50k-node floor of ROADMAP item 2 — in a single command.
    """

    clusters: int = 16
    nodes_per_cluster: int = 3_200
    jobs_per_cluster: int = 48
    nodes_per_job: int = 4
    iterations: int = 12
    spacing_s: float = 30.0
    racks: int = 8
    window_s: float = 300.0
    horizon_s: float = 3_600.0
    broker_policy: str = "demand"
    policy: str = "MixedAdaptive"
    #: Fraction of aggregate capacity for a *constant* top budget;
    #: ``None`` samples the Fig. 1 trace instead (the interesting case).
    budget_fraction: Optional[float] = None
    #: Every fourth cluster gets a local feeder-limit dip mid-horizon,
    #: so the broker provably rebalances the freed watts to siblings.
    feeder_dips: bool = True
    trace_days: int = 2
    seed: int = 23

    def __post_init__(self) -> None:
        ensure_positive(self.clusters, "clusters")
        ensure_positive(self.nodes_per_cluster, "nodes_per_cluster")
        ensure_positive(self.jobs_per_cluster, "jobs_per_cluster")
        if self.budget_fraction is not None and not (
            0.0 < self.budget_fraction <= 1.0
        ):
            raise ValueError("budget_fraction must be in (0, 1]")

    @property
    def total_nodes(self) -> int:
        """Nodes across the whole campaign."""
        return self.clusters * self.nodes_per_cluster


def build_facility_config(
    config: Optional[FacilityCampaignConfig] = None,
) -> FacilityConfig:
    """The :class:`FacilityConfig` the standard campaign runs.

    Clusters cycle through procurement weights 1–4 and priorities 0–2,
    so every broker policy produces a distinct (still deterministic)
    split; with ``feeder_dips`` every fourth cluster's own fault
    schedule caps its allocation to 60 % of capacity for the middle
    third of the horizon.
    """
    config = config if config is not None else FacilityCampaignConfig()
    node_capacity_w = NodePowerModel(QUARTZ_CPU, 2).tdp_w
    cluster_capacity_w = config.nodes_per_cluster * node_capacity_w
    specs: List[ClusterSpec] = []
    for i in range(config.clusters):
        schedule = None
        if config.feeder_dips and i % 4 == 2:
            schedule = (
                FaultSchedule(name=f"feeder-dip-{i}")
                .budget_drop(config.horizon_s / 3.0,
                             0.6 * cluster_capacity_w)
                .budget_restore(2.0 * config.horizon_s / 3.0,
                                cluster_capacity_w)
            )
        specs.append(ClusterSpec(
            name=f"cluster-{i:02d}",
            node_count=config.nodes_per_cluster,
            racks=min(config.racks, config.nodes_per_cluster),
            nodes_per_job=config.nodes_per_job,
            jobs=config.jobs_per_cluster,
            iterations=config.iterations,
            spacing_s=config.spacing_s,
            weight=float(1 + i % 4),
            priority=i % 3,
            fault_schedule=schedule,
        ))
    budget_w = None
    trace = None
    if config.budget_fraction is not None:
        budget_w = config.budget_fraction * config.clusters \
            * cluster_capacity_w
    else:
        trace = FacilityTraceConfig(days=config.trace_days)
    return FacilityConfig(
        clusters=tuple(specs),
        name="facility-campaign",
        policy=config.policy,
        broker_policy=config.broker_policy,
        window_s=config.window_s,
        horizon_s=config.horizon_s,
        budget_w=budget_w,
        trace=trace,
        seed=config.seed,
    )


def run_facility_campaign(
    config: Optional[FacilityCampaignConfig] = None,
    workers: Optional[int] = None,
) -> FacilitySimulationResult:
    """Run the standard campaign; one call, the whole facility.

    ``workers`` splits the clusters into worker groups (see
    :func:`run_facility_simulation`); the result is bit-identical for
    every worker count.
    """
    return run_facility_simulation(build_facility_config(config), workers)


def campaign_rows(result: FacilitySimulationResult) -> List[Dict[str, object]]:
    """Per-cluster dashboard rows (the CLI table / CSV payload)."""
    rows: List[Dict[str, object]] = []
    for outcome in result.clusters:
        site = outcome.result
        allocations = outcome.allocations_w
        rows.append({
            "cluster": outcome.name,
            "nodes": float(outcome.node_count),
            "mean_allocation_w": float(sum(allocations) / len(allocations)),
            "min_allocation_w": float(min(allocations)),
            "max_allocation_w": float(max(allocations)),
            "jobs_completed": float(site.stats.jobs_completed),
            "never_admitted": float(len(site.never_admitted)),
            "truncated": float(len(site.truncated)),
            "energy_j": site.total_energy_j,
            "mean_turnaround_s": site.mean_turnaround_s(),
            "peak_power_w": site.peak_power_w(),
            "rebalances": float(outcome.rebalances),
            "char_hit_ratio": outcome.char_cache_hit_ratio,
        })
    return rows
