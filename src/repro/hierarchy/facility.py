"""Facility-scale hierarchical power simulation (multi-cluster).

The paper stops at one 918-node cluster under one static budget; its
own Fig. 1 motivates the real problem — a facility whose procured power
is chronically stranded and whose budget varies in time.  This module
scales the reproduction to that facility: a **budget-broker tree**

    facility ──▶ cluster ──▶ rack ──▶ node

where the facility broker samples a time-varying budget from the Fig. 1
synthetic trace (:func:`~repro.workload.facility.generate_facility_trace`,
rescaled to facility watts), apportions it to clusters each *epoch*
(``window_s``) under a pluggable policy, each cluster broker subdivides
its allocation across racks, and the node level is realised by the
existing site-simulation physics (the allocation policies already cap
per node).  Leaf clusters run the site simulation's own shift loop on
the fused engine (:mod:`repro.hierarchy.fused`); their time-varying
allocations are delivered as ``BUDGET_CHANGE`` events on a composed
:class:`~repro.faults.schedule.FaultSchedule`.

Determinism contract
--------------------
The whole plan — epoch budgets, demand signals, allocations, leaf
schedules, per-cluster seeds — is computed *open loop* from the config
before any physics runs.  With ``workers=k`` the clusters split
round-robin into ``min(k, clusters)`` groups, each one pure fused-engine
task fanned out over :class:`~repro.parallel.runner.ParallelRunner`
(results return in cluster order), with per-cluster seeds derived via
``SeedSequence`` from ``(config.seed, "facility-cluster", name)``.
Therefore: **same config + seed ⇒ bit-identical
:class:`FacilitySimulationResult`, regardless of worker count.**  A
degenerate one-cluster facility under a constant budget composes an
empty schedule and is bit-identical to the plain site simulation (both
pinned by ``tests/property/test_hierarchy_properties.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.cluster import QUARTZ_CPU, QUARTZ_VARIATION, Cluster
from repro.hardware.node import NodePowerModel
from repro.hierarchy.broker import BudgetBroker, ChildSignal
from repro.hierarchy.fused import run_fused_facility_leaves
from repro.manager.site_simulation import Arrival, SiteSimulationResult
from repro.parallel.runner import ParallelRunner
from repro.parallel.seeding import child_seed
from repro.stream.arrivals import synthetic_job_factory
from repro.telemetry import get_registry, enabled, span
from repro.units import ensure_positive
from repro.workload.facility import FacilityTraceConfig, generate_facility_trace

__all__ = [
    "ClusterOutcome",
    "ClusterSpec",
    "FacilityConfig",
    "FacilitySimulationResult",
    "build_cluster",
    "cluster_arrivals",
    "facility_budget_series",
    "run_facility_simulation",
]


@dataclass(frozen=True)
class ClusterSpec:
    """One leaf cluster of the facility tree.

    The workload is synthesised deterministically from the spec (the
    streaming job shapes, staggered arrivals), so a spec fully
    determines its cluster's simulation given the facility seed.
    """

    name: str
    node_count: int
    racks: int = 4
    nodes_per_job: int = 4
    jobs: int = 12
    iterations: int = 12
    spacing_s: float = 1.0
    power_hint_w: Optional[float] = 180.0
    uniform: bool = True
    weight: float = 1.0
    priority: int = 0
    floor_fraction: float = 0.05
    fault_schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a cluster needs a name")
        ensure_positive(self.node_count, "node_count")
        ensure_positive(self.racks, "racks")
        ensure_positive(self.nodes_per_job, "nodes_per_job")
        ensure_positive(self.jobs, "jobs")
        ensure_positive(self.spacing_s, "spacing_s")
        ensure_positive(self.weight, "weight")
        if self.racks > self.node_count:
            raise ValueError("racks cannot exceed node_count")
        if not 0.0 < self.floor_fraction <= 1.0:
            raise ValueError("floor_fraction must be in (0, 1]")

    def rack_node_counts(self) -> Tuple[int, ...]:
        """Nodes per rack (as even as integer division allows)."""
        base, extra = divmod(self.node_count, self.racks)
        return tuple(base + (1 if r < extra else 0)
                     for r in range(self.racks))


@dataclass(frozen=True)
class FacilityConfig:
    """The whole facility: clusters, brokers, and the budget source.

    Exactly one budget source applies: ``budget_w`` (a constant top
    budget) or ``trace`` (the Fig. 1 synthetic trace, rescaled so the
    trace's utilisation fraction of its rating maps onto this
    facility's aggregate TDP capacity).  When neither is given the
    default trace config is used.
    """

    clusters: Tuple[ClusterSpec, ...]
    name: str = "facility"
    policy: str = "MixedAdaptive"
    broker_policy: str = "demand"
    window_s: float = 300.0
    horizon_s: float = 3600.0
    budget_w: Optional[float] = None
    trace: Optional[FacilityTraceConfig] = None
    noise_std: float = 0.004
    max_batches: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("a facility needs at least one cluster")
        names = [spec.name for spec in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        ensure_positive(self.window_s, "window_s")
        ensure_positive(self.horizon_s, "horizon_s")
        if self.budget_w is not None:
            ensure_positive(self.budget_w, "budget_w")
            if self.trace is not None:
                raise ValueError("give budget_w or trace, not both")

    @property
    def total_nodes(self) -> int:
        """Nodes across every cluster."""
        return sum(spec.node_count for spec in self.clusters)

    def epoch_times_s(self) -> Tuple[float, ...]:
        """Rebalance instants: one per ``window_s`` over the horizon."""
        epochs = max(1, int(math.ceil(self.horizon_s / self.window_s)))
        return tuple(e * self.window_s for e in range(epochs))


@dataclass(frozen=True)
class ClusterOutcome:
    """One cluster's slice of the facility result."""

    name: str
    node_count: int
    seed: int
    #: Facility-broker allocation per epoch.
    allocations_w: Tuple[float, ...]
    #: Rack-broker subdivision per epoch (one tuple per epoch).
    rack_allocations_w: Tuple[Tuple[float, ...], ...]
    result: SiteSimulationResult
    #: Characterization-memo hits/misses for this cluster's shift.  Each
    #: worker group has its own planner memo, so the split depends on
    #: the worker count; excluded from equality, which covers the
    #: physics only.
    char_cache_hits: int = field(default=0, compare=False)
    char_cache_misses: int = field(default=0, compare=False)

    @property
    def char_cache_hit_ratio(self) -> float:
        """Fraction of characterizations served from a shared cache."""
        total = self.char_cache_hits + self.char_cache_misses
        return self.char_cache_hits / total if total else 0.0

    @property
    def rebalances(self) -> int:
        """Epoch boundaries where this cluster's allocation moved."""
        return sum(
            1 for prev, cur in zip(self.allocations_w,
                                   self.allocations_w[1:])
            if cur != prev
        )


@dataclass(frozen=True)
class FacilitySimulationResult:
    """Everything the facility campaign produced (bit-comparable)."""

    name: str
    broker_policy: str
    window_s: float
    epoch_s: Tuple[float, ...]
    #: Top-level budget in force at each epoch.
    budgets_w: Tuple[float, ...]
    clusters: Tuple[ClusterOutcome, ...]
    #: Facility-broker rebalance count over the horizon.
    rebalances: int = field(default=0, compare=False)

    @property
    def total_nodes(self) -> int:
        """Nodes simulated across the facility."""
        return sum(c.node_count for c in self.clusters)

    @property
    def total_energy_j(self) -> float:
        """Energy across every cluster's shift."""
        return float(sum(c.result.total_energy_j for c in self.clusters))

    def completed_jobs(self) -> int:
        """Jobs completed facility-wide."""
        return sum(len(c.result.completed) for c in self.clusters)

    def mean_turnaround_s(self) -> float:
        """Mean turnaround over every completed job in the facility."""
        turnarounds = [
            t for c in self.clusters
            for t in c.result.job_turnaround_s.values()
        ]
        if not turnarounds:
            return 0.0
        return float(sum(turnarounds) / len(turnarounds))

    def allocated_w(self, epoch: int) -> float:
        """Watts the facility broker handed out at ``epoch``."""
        return float(sum(c.allocations_w[epoch] for c in self.clusters))

    def stranded_w(self) -> float:
        """Mean facility watts procured but never allocated (Fig. 1's
        stranded-power quantity, one level up)."""
        per_epoch = [
            budget - self.allocated_w(e)
            for e, budget in enumerate(self.budgets_w)
        ]
        return float(sum(per_epoch) / len(per_epoch))

    def char_cache_hit_ratio(self) -> float:
        """Facility-wide fraction of characterizations served shared."""
        hits = sum(c.char_cache_hits for c in self.clusters)
        misses = sum(c.char_cache_misses for c in self.clusters)
        total = hits + misses
        return hits / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """The campaign dashboard row."""
        return {
            "clusters": float(len(self.clusters)),
            "nodes": float(self.total_nodes),
            "epochs": float(len(self.epoch_s)),
            "mean_budget_w": float(sum(self.budgets_w) / len(self.budgets_w)),
            "stranded_w": self.stranded_w(),
            "jobs_completed": float(self.completed_jobs()),
            "total_energy_j": self.total_energy_j,
            "mean_turnaround_s": self.mean_turnaround_s(),
            "broker_rebalances": float(self.rebalances),
            "char_cache_hit_ratio": self.char_cache_hit_ratio(),
        }


# ----------------------------------------------------------------------
# deterministic leaf construction
# ----------------------------------------------------------------------
def build_cluster(spec: ClusterSpec, facility_seed: int) -> Cluster:
    """The hardware for one leaf, seeded from the facility identity."""
    return Cluster(
        node_count=spec.node_count,
        variation=None if spec.uniform else QUARTZ_VARIATION,
        seed=child_seed(facility_seed, "facility-hw", spec.name),
    )


def cluster_arrivals(spec: ClusterSpec) -> List[Arrival]:
    """The deterministic arrival stream one cluster replays.

    Staggered submissions of the streaming job shapes; every call
    builds fresh :class:`JobRequest` objects (requests are stateful), so
    a spec can be simulated any number of times.
    """
    factory = synthetic_job_factory(
        node_count=spec.nodes_per_job,
        iterations=spec.iterations,
        power_hint_w=spec.power_hint_w,
        prefix=spec.name,
    )
    return [
        Arrival(time_s=i * spec.spacing_s, request=factory(i))
        for i in range(spec.jobs)
    ]


def _power_model() -> NodePowerModel:
    """The shared node power model (all specs use the Quartz SKU)."""
    return NodePowerModel(QUARTZ_CPU, 2)


def facility_budget_series(
    config: FacilityConfig, capacity_w: float,
) -> Tuple[float, ...]:
    """The top-level budget at each epoch.

    Constant when ``budget_w`` is set; otherwise the synthetic facility
    trace sampled at each epoch instant and rescaled from its MW rating
    onto this facility's aggregate capacity (utilisation-preserving).
    """
    epochs = config.epoch_times_s()
    if config.budget_w is not None:
        return tuple(float(config.budget_w) for _ in epochs)
    trace_config = config.trace if config.trace is not None \
        else FacilityTraceConfig()
    trace = generate_facility_trace(trace_config)
    sample_s = 86_400.0 / trace_config.samples_per_day
    n = len(trace.power_mw)
    scale = capacity_w / trace_config.rating_mw
    return tuple(
        float(trace.power_mw[int(t / sample_s) % n]) * scale
        for t in epochs
    )


def _demand_series(
    spec: ClusterSpec, arrivals: Sequence[Arrival],
    epochs: Sequence[float], window_s: float, model: NodePowerModel,
) -> List[float]:
    """Per-epoch demand signal: the admission-style power estimate of
    the jobs arriving inside each window (hint-scaled, floored at the
    RAPL minimum — the same estimate the admission controller uses)."""
    estimates = []
    for arrival in arrivals:
        request = arrival.request
        floor_w = request.node_count * model.min_cap_w
        if request.power_hint_w is not None:
            estimate = max(request.power_hint_w * request.node_count,
                           floor_w)
        else:
            estimate = request.node_count * model.tdp_w
        estimates.append((arrival.time_s, estimate))
    series = []
    for t in epochs:
        series.append(float(sum(
            e for (at, e) in estimates if t <= at < t + window_s
        )))
    return series


def _cluster_cap_series(
    spec: ClusterSpec, capacity_w: float, epochs: Sequence[float],
) -> List[Optional[float]]:
    """Per-epoch allocation cap from the cluster's own fault schedule.

    A ``BUDGET_CHANGE`` event in a cluster's schedule is a *local*
    feeder limit: it caps what the facility broker may allocate (the
    freed watts rebalance to siblings) rather than being replayed
    inside the leaf simulation, which would double-apply it.
    """
    schedule = spec.fault_schedule
    if schedule is None or not schedule.of_kind(FaultKind.BUDGET_CHANGE):
        return [None] * len(epochs)
    return [min(schedule.budget_at(t, capacity_w), capacity_w)
            for t in epochs]


def _leaf_schedule(
    spec: ClusterSpec, epochs: Sequence[float],
    allocations: Sequence[float], facility_name: str,
) -> Optional[FaultSchedule]:
    """The fault schedule one leaf simulation replays: the cluster's own
    non-budget faults plus step ``BUDGET_CHANGE`` events wherever its
    allocation moves.  ``None`` (the guaranteed-no-op path) when there
    is nothing to inject."""
    events: List[FaultEvent] = []
    if spec.fault_schedule is not None:
        events.extend(
            e for e in spec.fault_schedule.events
            if e.kind is not FaultKind.BUDGET_CHANGE
        )
    for e in range(1, len(allocations)):
        if allocations[e] != allocations[e - 1]:
            events.append(FaultEvent(
                time_s=epochs[e], kind=FaultKind.BUDGET_CHANGE,
                budget_w=float(allocations[e]),
            ))
    if not events:
        return None
    return FaultSchedule(events=tuple(events),
                         name=f"{facility_name}:{spec.name}")


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _FacilityPlan:
    """The open-loop budget plan (internal; computed before physics)."""

    epochs: Tuple[float, ...]
    budgets_w: Tuple[float, ...]
    #: allocations[cluster][epoch]
    allocations_w: Tuple[Tuple[float, ...], ...]
    rack_allocations_w: Tuple[Tuple[Tuple[float, ...], ...], ...]
    rebalances: int = field(default=0, compare=False)


def _plan_facility(config: FacilityConfig) -> _FacilityPlan:
    """Apportion every epoch's budget down the tree, open loop."""
    model = _power_model()
    epochs = config.epoch_times_s()
    capacities = [spec.node_count * model.tdp_w for spec in config.clusters]
    budgets = facility_budget_series(config, float(sum(capacities)))

    demands = [
        _demand_series(spec, cluster_arrivals(spec), epochs,
                       config.window_s, model)
        for spec in config.clusters
    ]
    caps = [
        _cluster_cap_series(spec, capacity, epochs)
        for spec, capacity in zip(config.clusters, capacities)
    ]

    facility_broker = BudgetBroker(config.name, "facility",
                                   config.broker_policy)
    rack_brokers = [
        BudgetBroker(f"{spec.name}/racks", "rack", "uniform")
        for spec in config.clusters
    ]
    rack_signals = [
        [
            ChildSignal(name=f"{spec.name}/rack{r}",
                        capacity_w=nodes * model.tdp_w)
            for r, nodes in enumerate(spec.rack_node_counts())
        ]
        for spec in config.clusters
    ]

    per_epoch: List[Tuple[float, ...]] = []
    rack_per_epoch: List[List[Tuple[float, ...]]] = [
        [] for _ in config.clusters
    ]
    rebalances = 0
    previous: Optional[Tuple[float, ...]] = None
    for e, t in enumerate(epochs):
        signals = [
            ChildSignal(
                name=spec.name,
                capacity_w=capacities[i],
                floor_w=spec.floor_fraction * capacities[i],
                demand_w=demands[i][e],
                weight=spec.weight,
                priority=spec.priority,
                cap_w=caps[i][e],
            )
            for i, spec in enumerate(config.clusters)
        ]
        allocations = facility_broker.apportion(budgets[e], signals)
        if previous is not None and allocations != previous:
            rebalances += 1
            facility_broker.rebalanced(e, budgets[e], signals, allocations)
        previous = allocations
        per_epoch.append(allocations)
        for i in range(len(config.clusters)):
            rack_per_epoch[i].append(
                rack_brokers[i].apportion(allocations[i], rack_signals[i])
            )

    by_cluster = tuple(
        tuple(per_epoch[e][i] for e in range(len(epochs)))
        for i in range(len(config.clusters))
    )
    return _FacilityPlan(
        epochs=epochs,
        budgets_w=tuple(budgets),
        allocations_w=by_cluster,
        rack_allocations_w=tuple(
            tuple(rack_per_epoch[i]) for i in range(len(config.clusters))
        ),
        rebalances=rebalances,
    )


def _group_task(payload) -> Tuple[List[SiteSimulationResult],
                                   List[Tuple[int, int]]]:
    """Run one worker group of clusters through the fused engine
    (module-level so it pickles into pool workers)."""
    config, budgets_w, schedules, seeds = payload
    return run_fused_facility_leaves(config, budgets_w, schedules, seeds)


def run_facility_simulation(
    config: FacilityConfig,
    workers: Optional[int] = None,
) -> FacilitySimulationResult:
    """Run the whole facility: plan the budget tree, run the leaves.

    Leaf physics runs on the fused engine
    (:func:`~repro.hierarchy.fused.run_fused_facility_leaves`).
    ``workers`` (``None`` reads ``$REPRO_WORKERS``, as
    :class:`ParallelRunner` does) splits the clusters round-robin into
    ``min(workers, len(clusters))`` groups; each group is one pure task
    with its own :class:`~repro.manager.site_simulation.BatchPlanner`,
    and one group runs in-process with no pool.

    The result is bit-identical for every worker count: the plan is
    open loop, and each cluster's shift loop consumes only its own
    seed whichever group it lands in.
    """
    runner = ParallelRunner(workers)
    n = len(config.clusters)
    k = min(runner.workers, n)
    with span("hierarchy.facility.run", facility=config.name,
              clusters=n, nodes=config.total_nodes,
              broker_policy=config.broker_policy, groups=k,
              epochs=len(config.epoch_times_s())) as run_sp:
        with span("hierarchy.facility.plan"):
            plan = _plan_facility(config)
        seeds = [
            child_seed(config.seed, "facility-cluster", spec.name)
            for spec in config.clusters
        ]
        schedules = [
            _leaf_schedule(spec, plan.epochs, plan.allocations_w[i],
                           config.name)
            for i, spec in enumerate(config.clusters)
        ]
        base_budgets = [float(plan.allocations_w[i][0]) for i in range(n)]
        payloads = [
            (replace(config, clusters=config.clusters[g::k]),
             base_budgets[g::k], schedules[g::k], seeds[g::k])
            for g in range(k)
        ]
        results: List[Optional[SiteSimulationResult]] = [None] * n
        char_stats: List[Tuple[int, int]] = [(0, 0)] * n
        for g, (group_results, group_stats) in enumerate(
                runner.map(_group_task, payloads)):
            results[g::k] = group_results
            char_stats[g::k] = group_stats
        outcomes = tuple(
            ClusterOutcome(
                name=spec.name,
                node_count=spec.node_count,
                seed=seeds[i],
                allocations_w=plan.allocations_w[i],
                rack_allocations_w=plan.rack_allocations_w[i],
                result=results[i],
                char_cache_hits=int(char_stats[i][0]),
                char_cache_misses=int(char_stats[i][1]),
            )
            for i, spec in enumerate(config.clusters)
        )
        facility = FacilitySimulationResult(
            name=config.name,
            broker_policy=config.broker_policy,
            window_s=config.window_s,
            epoch_s=plan.epochs,
            budgets_w=plan.budgets_w,
            clusters=outcomes,
            rebalances=plan.rebalances,
        )
        if enabled():
            registry = get_registry()
            registry.gauge("hierarchy.facility.nodes").set(
                float(facility.total_nodes))
            registry.counter("hierarchy.facility.runs").inc()
            registry.counter("hierarchy.broker.facility.rebalances_total") \
                .inc(plan.rebalances or 0)
        if run_sp is not None:
            run_sp.set_attribute("rebalances", plan.rebalances)
            run_sp.set_attribute("jobs_completed",
                                 facility.completed_jobs())
            run_sp.set_attribute("stranded_w", facility.stranded_w())
    return facility
