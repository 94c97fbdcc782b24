"""Resilience experiment: the five policies under the standard fault suite.

The paper's conclusion asks for a policy that "minimizes the loss of
quality of service in exceptional cases"; this experiment makes that an
actual measurement.  Every policy (Precharacterized through
MixedAdaptive) runs one arrival-driven site shift fault-free to fix its
baseline, then replays the *same* arrival stream under each named
scenario of :data:`~repro.faults.scenarios.STANDARD_SCENARIOS`, scoring:

* **QoS loss** — the percentage growth of mean job turnaround relative
  to the policy's own fault-free shift (the "loss of quality of service"
  quantity);
* **budget-overshoot watt-seconds** — energy spent above the budget in
  force, split into the *planned* component (after the degradation
  ladder's stage-2 re-plan — the compliance quantity that must be zero
  on feasible scenarios for system-power-aware policies) and the *total*
  including the reaction window of mid-batch drops.

Scenario timelines are materialised against each policy's own fault-free
makespan, so the disturbance lands mid-shift for every policy no matter
how fast it runs the mix.

:meth:`ResilienceReport.check` encodes the CI gate: on every feasible
scenario without actuator faults, every system-power-aware policy must
show zero planned overshoot.  (Actuator faults — a RAPL domain erroring
back to TDP — physically break compliance no matter how the re-plan
allocates, so those scenarios report overshoot rather than assert on
it.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.render import render_table
from repro.core.registry import POLICY_NAMES, create_policy
from repro.faults.schedule import FaultKind
from repro.faults.scenarios import SCENARIO_NAMES, STANDARD_SCENARIOS
from repro.hardware.cluster import Cluster
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.sim.engine import ExecutionModel
from repro.telemetry import emit, enabled
from repro.workload.kernel import KernelConfig

__all__ = [
    "ScenarioOutcome",
    "ResilienceReport",
    "standard_arrivals",
    "run_resilience_suite",
    "ControllerFaultOutcome",
    "ControllerFaultStudy",
    "controller_fault_study",
]

#: Scenarios the compliance gate asserts on: feasibility is checked per
#: site below; actuator-fault scenarios are excluded by construction.
_TOLERANCE_WS = 1e-6


@dataclass(frozen=True)
class ScenarioOutcome:
    """One (policy, scenario) cell of the resilience matrix."""

    policy: str
    scenario: str
    #: Whether the scenario's lowest budget still covers hosts x floor.
    feasible: bool
    #: Whether the scenario injects actuator (cap) faults, which make
    #: strict budget compliance physically impossible.
    actuator_faults: bool
    #: Mean-turnaround growth vs the policy's fault-free shift (percent).
    qos_loss_pct: float
    #: Watt-seconds over the in-force budget after stage-2 re-planning.
    planned_overshoot_ws: float
    #: Total watt-seconds over budget, reaction windows included.
    total_overshoot_ws: float
    #: Batches planned below the re-plan tier (clamp or floor).
    degraded_batches: int
    completed_jobs: int
    makespan_s: float

    def compliant(self) -> bool:
        """Zero planned overshoot (the post-re-plan gate quantity)."""
        return self.planned_overshoot_ws <= _TOLERANCE_WS


@dataclass(frozen=True)
class ResilienceReport:
    """The full policy x scenario resilience matrix."""

    outcomes: Tuple[ScenarioOutcome, ...]
    budget_w: float
    host_count: int

    def of_policy(self, policy: str) -> Tuple[ScenarioOutcome, ...]:
        """All scenario outcomes for one policy, suite order."""
        return tuple(o for o in self.outcomes if o.policy == policy)

    def qos_loss_by_policy(self) -> Dict[str, float]:
        """Mean QoS loss over feasible scenarios, per policy."""
        out: Dict[str, float] = {}
        for policy in dict.fromkeys(o.policy for o in self.outcomes):
            losses = [o.qos_loss_pct for o in self.of_policy(policy)
                      if o.feasible]
            out[policy] = float(np.mean(losses)) if losses else 0.0
        return out

    def check(self) -> Dict[str, bool]:
        """The CI gate: named pass/fail checks over the matrix.

        ``zero_planned_overshoot``: every system-power-aware policy holds
        zero watt-seconds over the in-force budget after re-planning, on
        every feasible scenario without actuator faults.
        ``infeasible_reported``: scenarios whose budget dips below the
        floor are flagged infeasible (none silently pass as compliant
        *and* feasible).
        """
        aware = {
            name for name in dict.fromkeys(o.policy for o in self.outcomes)
            if create_policy(name).system_power_aware
        }
        gated = [
            o for o in self.outcomes
            if o.policy in aware and o.feasible and not o.actuator_faults
        ]
        checks = {
            "zero_planned_overshoot": all(o.compliant() for o in gated),
            "infeasible_reported": all(
                not o.feasible
                for o in self.outcomes if o.scenario == "brownout"
            ) or not any(o.scenario == "brownout" for o in self.outcomes),
        }
        return checks

    def all_hold(self) -> bool:
        """Whether every check passes."""
        return all(self.check().values())

    def render(self) -> str:
        """The resilience matrix as an aligned text table."""
        rows = []
        for o in self.outcomes:
            rows.append([
                o.policy,
                o.scenario,
                "yes" if o.feasible else "NO",
                f"{o.qos_loss_pct:+.1f}%",
                f"{o.planned_overshoot_ws:.1f}",
                f"{o.total_overshoot_ws:.1f}",
                str(o.degraded_batches),
                str(o.completed_jobs),
            ])
        return render_table(
            ["policy", "scenario", "feasible", "QoS loss",
             "plan over Ws", "total over Ws", "degraded", "done"],
            rows,
            title=f"Resilience suite ({self.host_count} hosts, "
                  f"{self.budget_w / 1000:.1f} kW base budget)",
        )


def standard_arrivals(jobs: int, nodes_per_job: int,
                      iterations: int) -> List[Arrival]:
    """The deterministic arrival stream every resilience run replays.

    A staggered mix of compute- and waiting-heavy kernels (the same
    construction the ``site`` CLI command uses), so scenario outcomes are
    comparable across policies and invocations.
    """
    return [
        Arrival(
            time_s=float(i),
            request=JobRequest(
                f"resilience-job-{i}",
                KernelConfig(
                    intensity=float(2 ** (1 + i % 4)),
                    waiting_fraction=0.25 * (i % 3),
                    imbalance=1 + i % 3,
                ),
                node_count=nodes_per_job,
                iterations=iterations,
            ),
        )
        for i in range(jobs)
    ]


def run_resilience_suite(
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    jobs: int = 6,
    nodes_per_job: int = 4,
    iterations: int = 12,
    cluster: Optional[Cluster] = None,
    model: Optional[ExecutionModel] = None,
    budget_fraction: float = 0.9,
    noise_std: float = 0.004,
    run_seed: int = 7,
) -> ResilienceReport:
    """Score policies against the named fault scenarios.

    Parameters
    ----------
    scenarios / policies:
        Names to run (defaults: the full standard suite x the paper's
        five policies).
    jobs / nodes_per_job / iterations:
        Shape of the replayed arrival stream (smoke runs shrink these).
    cluster:
        Site cluster (default: ``3 x nodes_per_job`` variation-free
        hosts, the ``site`` command's construction).
    budget_fraction:
        Base facility budget as a fraction of cluster TDP.
    run_seed:
        Noise-stream seed shared by every shift, so fault-free and
        faulted replays differ only by the schedule.
    """
    scenario_names = tuple(scenarios) if scenarios is not None \
        else SCENARIO_NAMES
    policy_names = tuple(policies) if policies is not None else POLICY_NAMES
    for name in scenario_names:
        if name not in STANDARD_SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}"
            )
    model = model if model is not None else ExecutionModel()
    if cluster is None:
        cluster = Cluster(
            node_count=3 * nodes_per_job, variation=None, seed=11
        )
    hosts = len(cluster)
    budget_w = budget_fraction * hosts * model.power_model.tdp_w
    min_cap_w = model.power_model.min_cap_w
    arrivals = standard_arrivals(jobs, nodes_per_job, iterations)

    outcomes: List[ScenarioOutcome] = []
    for policy_name in policy_names:
        policy = create_policy(policy_name)
        baseline = run_site_simulation(
            arrivals, cluster, policy, budget_w,
            noise_std=noise_std, run_seed=run_seed,
        )
        base_turnaround = baseline.mean_turnaround_s()
        duration_s = max(baseline.makespan_s, 1.0)
        for scenario_name in scenario_names:
            scenario = STANDARD_SCENARIOS[scenario_name]
            schedule = scenario.build(budget_w, hosts, duration_s)
            feasible = scenario.feasible(
                budget_w, hosts, duration_s, min_cap_w=min_cap_w
            )
            actuator = any(
                e.kind in (FaultKind.CAP_STUCK, FaultKind.CAP_ERROR)
                for e in schedule.events
            )
            result = run_site_simulation(
                arrivals, cluster, policy, budget_w,
                noise_std=noise_std, run_seed=run_seed,
                fault_schedule=schedule,
            )
            turnaround = result.mean_turnaround_s()
            qos_loss = 0.0 if base_turnaround <= 0 else \
                100.0 * (turnaround / base_turnaround - 1.0)
            planned_ws = float(sum(b.planned_overshoot_ws
                                   for b in result.batches))
            outcomes.append(ScenarioOutcome(
                policy=policy_name,
                scenario=scenario_name,
                feasible=feasible,
                actuator_faults=actuator,
                qos_loss_pct=float(qos_loss),
                planned_overshoot_ws=planned_ws,
                total_overshoot_ws=result.total_overshoot_ws(),
                degraded_batches=sum(
                    b.degradation_tier not in ("none", "replan")
                    for b in result.batches),
                completed_jobs=result.stats.jobs_completed,
                makespan_s=result.makespan_s,
            ))
            if enabled():
                emit(
                    "experiments.resilience", "scenario_scored",
                    policy=policy_name, scenario=scenario_name,
                    feasible=feasible, qos_loss_pct=float(qos_loss),
                    planned_overshoot_ws=planned_ws,
                    total_overshoot_ws=result.total_overshoot_ws(),
                )
    return ResilienceReport(
        outcomes=tuple(outcomes), budget_w=float(budget_w), host_count=hosts
    )


# ----------------------------------------------------------------------
# Controller-level fault study (batched feedback loops)
# ----------------------------------------------------------------------

#: Fault kinds the runtime injector can act on inside a controller run
#: (cap writes, epoch noise, and the sample the agent observes); budget
#: and node-lifecycle kinds are resource-manager events the controller
#: never sees.
_RUNTIME_KINDS = frozenset({
    FaultKind.CAP_STUCK,
    FaultKind.CAP_ERROR,
    FaultKind.NOISE_BURST,
    FaultKind.SENSOR_DROPOUT,
})


@dataclass(frozen=True)
class ControllerFaultOutcome:
    """One scenario's effect on the balancer's closed feedback loop."""

    scenario: str
    #: Whether the scenario carries faults the runtime injector acts on
    #: (otherwise the run is vector-batched with the fault-free reference).
    runtime_faults: bool
    epochs: int
    converged: bool
    #: Mean node power at the loop's final operating point.
    steady_power_w: float
    #: Steady-power growth vs the fault-free reference run (percent).
    power_delta_pct: float
    #: Spread of the converged per-host limits (max - min, W).
    final_limit_spread_w: float


@dataclass(frozen=True)
class ControllerFaultStudy:
    """Balancer feedback-loop resilience across the standard scenarios."""

    outcomes: Tuple[ControllerFaultOutcome, ...]
    reference_power_w: float
    reference_epochs: int
    host_count: int

    def render(self) -> str:
        """The study as an aligned text table."""
        rows = [[
            "fault-free", "-", str(self.reference_epochs), "yes",
            f"{self.reference_power_w:.1f}", "+0.0%", "-",
        ]]
        for o in self.outcomes:
            rows.append([
                o.scenario,
                "yes" if o.runtime_faults else "no",
                str(o.epochs),
                "yes" if o.converged else "NO",
                f"{o.steady_power_w:.1f}",
                f"{o.power_delta_pct:+.1f}%",
                f"{o.final_limit_spread_w:.1f}",
            ])
        return render_table(
            ["scenario", "rt faults", "epochs", "converged",
             "steady W/node", "vs clean", "limit spread W"],
            rows,
            title=f"Balancer feedback loop under faults "
                  f"({self.host_count} hosts, batched controller runtime)",
        )


def controller_fault_study(
    scenarios: Optional[Sequence[str]] = None,
    nodes: int = 4,
    config: Optional[KernelConfig] = None,
    cluster: Optional[Cluster] = None,
    model: Optional[ExecutionModel] = None,
    noise_std: float = 0.004,
    max_epochs: int = 150,
    seed: int = 7,
) -> ControllerFaultStudy:
    """Drive the *authentic* balancer loop through every fault scenario.

    The site-level suite above scores policies through the analytic
    engine; this study asks the complementary runtime question — what do
    the scenarios do to the GEOPM-style feedback loop itself?  One
    balancer run per scenario plus a fault-free reference all advance in
    lockstep through a single
    :class:`~repro.runtime.batch.ControllerBatch` and one batched
    balancer: scenarios with no runtime-applicable faults (pure budget
    timelines) run clean, while each fault-injected run's agent row
    steers on its injector's corrupted view of the epoch.
    """
    from repro.faults.injection import RuntimeFaultInjector
    from repro.runtime.batch import ControllerRunSpec, run_controller_batch
    from repro.runtime.power_balancer import PowerBalancerAgent
    from repro.workload.job import Job, WorkloadMix

    scenario_names = tuple(scenarios) if scenarios is not None \
        else SCENARIO_NAMES
    for name in scenario_names:
        if name not in STANDARD_SCENARIOS:
            raise KeyError(
                f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}"
            )
    model = model if model is not None else ExecutionModel()
    if cluster is None:
        cluster = Cluster(node_count=nodes, variation=None, seed=11)
    if config is None:
        config = KernelConfig(
            intensity=16.0, waiting_fraction=0.5, imbalance=2
        )
    ids = np.arange(nodes)
    eff = cluster.efficiencies[ids]
    job = Job(name="fault-study", config=config, node_count=nodes,
              iterations=max_epochs)
    budget_w = model.power_model.tdp_w * nodes

    # Materialise scenario timelines against the run's nominal length
    # (TDP-cap iteration time), the same clock the engine fault plan uses.
    layout = WorkloadMix(name=job.name, jobs=(job,)).layout()
    t0 = model.bind(layout, eff)(np.full(nodes, model.power_model.tdp_w))[2]
    duration_s = max(max_epochs * (float(np.max(t0)) + 5.0e-4), 1.0)

    def spec(injector=None) -> ControllerRunSpec:
        return ControllerRunSpec(
            job=job,
            efficiencies=eff,
            agent=PowerBalancerAgent(job_budget_w=budget_w),
            noise_std=noise_std,
            seed=seed,
            fault_injector=injector,
        )

    specs = [spec()]
    runtime_faulted = []
    for name in scenario_names:
        schedule = STANDARD_SCENARIOS[name].build(budget_w, nodes, duration_s)
        applicable = any(e.kind in _RUNTIME_KINDS for e in schedule.events)
        runtime_faulted.append(applicable)
        injector = RuntimeFaultInjector(
            schedule, tdp_w=model.power_model.tdp_w, seed=seed,
        ) if applicable else None
        specs.append(spec(injector))

    result = run_controller_batch(specs, model=model, max_epochs=max_epochs)
    ref_power = float(np.mean(result.steady_state_sample(0).host_power_w))
    outcomes = []
    for idx, name in enumerate(scenario_names):
        c = idx + 1
        steady = result.steady_state_sample(c)
        power = float(np.mean(steady.host_power_w))
        limits = result.final_limits_w(c)
        outcomes.append(ControllerFaultOutcome(
            scenario=name,
            runtime_faults=runtime_faulted[idx],
            epochs=int(result.epochs[c]),
            converged=bool(result.converged[c]),
            steady_power_w=power,
            power_delta_pct=0.0 if ref_power <= 0 else
                float(100.0 * (power / ref_power - 1.0)),
            final_limit_spread_w=float(np.max(limits) - np.min(limits)),
        ))
        if enabled():
            emit(
                "experiments.resilience", "controller_scenario_scored",
                scenario=name, runtime_faults=runtime_faulted[idx],
                epochs=int(result.epochs[c]),
                converged=bool(result.converged[c]),
                steady_power_w=power,
            )
    return ControllerFaultStudy(
        outcomes=tuple(outcomes),
        reference_power_w=ref_power,
        reference_epochs=int(result.epochs[0]),
        host_count=nodes,
    )
