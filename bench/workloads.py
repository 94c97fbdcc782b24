"""The four benchmark workloads: inputs, the timed call, output checks.

Each workload is split in three so the worker can time only the
program:

* ``build(seed, scale)`` makes the inputs from the seed (untimed);
* ``execute(inputs)`` calls the program's public entry point — always
  through its module at call time, so the layer timer's patched
  bindings are the ones called — and returns its raw result;
* ``assess(inputs, raw)`` turns the result into an :class:`Outcome`
  (the simulated totals, a digest and the failed checks).

``scale`` shrinks the dominant input dimension (jobs, arrivals or
kernel configs) while keeping every other knob, so the warm-up and the
smoke test run the same code path as the timed repeats.

This module imports nothing from ``repro`` at import time: the
orchestrator reads the workload names and entry modules from it without
loading the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["WORKLOADS", "Outcome", "derive_seed", "digest"]

#: Significant digits kept when a float enters a digest: enough to see
#: any physics change, few enough that a last-bit difference between two
#: hosts' vector math does not change the digest.
DIGEST_DIGITS = 10

#: The synthetic job classes every arrival-driven workload cycles
#: through: memory-bound to compute-bound kernels plus one imbalanced
#: waiting kernel (the streaming engine's default job shapes).
JOB_CLASSES = (
    {"intensity": 0.25},
    {"intensity": 8.0},
    {"intensity": 2.0, "waiting_fraction": 0.5, "imbalance": 2},
    {"intensity": 32.0},
)

#: Paper Fig. 5 axes: eight arithmetic intensities x seven
#: (waiting fraction, imbalance) columns = 56 kernel configs.
FIG5_INTENSITIES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
FIG5_COLUMNS = (
    (0.0, 1), (0.25, 2), (0.25, 3), (0.50, 2), (0.50, 3), (0.75, 2),
    (0.75, 3),
)


def derive_seed(seed: int, *parts: object) -> int:
    """A 32-bit seed derived from the benchmark seed and a label."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _canon(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def digest(value: Any) -> str:
    """Short content hash of a JSON-able summary, floats rounded."""
    payload = json.dumps(_canon(value), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def accepted_kwargs(func, wanted: Dict[str, Any]) -> Dict[str, Any]:
    """The subset of ``wanted`` the callee's signature still accepts.

    Lets later changes delete a knob without editing the benchmark:
    the knob is simply no longer passed (and the output records it).
    """
    params = inspect.signature(func).parameters
    return {k: v for k, v in wanted.items() if k in params}


def _sized(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def _poisson_arrivals(seed: int, count: int, rate_per_s: float,
                      node_count: int, iterations: int, prefix: str):
    """``count`` Poisson arrivals at ``rate_per_s``, job classes cycled.

    A fixed count (rather than a fixed horizon) keeps the amount of work
    equal across seeds, so seeds move timings only through scheduling.
    """
    import numpy as np

    from repro.manager.queue import JobRequest
    from repro.manager.site_simulation import Arrival
    from repro.workload.kernel import KernelConfig

    configs = [KernelConfig(**c) for c in JOB_CLASSES]
    gaps = np.random.default_rng(seed).exponential(1.0 / rate_per_s, count)
    return [
        Arrival(time_s=float(t), request=JobRequest(
            name=f"{prefix}-{i}", config=configs[i % len(configs)],
            node_count=node_count, iterations=iterations,
            power_hint_w=180.0,
        ))
        for i, t in enumerate(np.cumsum(gaps).tolist())
    ]


def _ends_once(expected: Sequence[str], *groups: Sequence[str]) -> List[str]:
    """Check every expected job ends in exactly one terminal group."""
    ended = [name for group in groups for name in group]
    problems = []
    if len(ended) != len(set(ended)):
        problems.append(f"{len(ended) - len(set(ended))} jobs ended twice")
    missing = set(expected) - set(ended)
    if missing:
        problems.append(f"{len(missing)} jobs never ended")
    extra = set(ended) - set(expected)
    if extra:
        problems.append(f"{len(extra)} unknown jobs ended")
    return problems


@dataclass
class Outcome:
    """What one run of a workload produced, in workload-neutral terms."""

    #: Simulated jobs completed (runtime: controller runs finished).
    jobs: int
    #: Simulated energy, joules.
    energy_j: float
    #: Integral of the power budget over the simulated makespan, W*s.
    budget_ws: float
    #: Mean simulated submit-to-completion time (runtime: run time), s.
    turnaround_s: float
    digest: str
    failures: List[str] = field(default_factory=list)


class Workload:
    """One workload: ``name``, ``why``, ``modules`` plus the three steps."""

    name = ""
    why = ""
    #: Modules whose fresh-interpreter import time counts as set-up.
    modules: Tuple[str, ...] = ()

    def knobs(self) -> Dict[str, Any]:
        """Optional keyword arguments passed to the entry point today."""
        return {}


class Facility(Workload):
    name = "facility"
    why = ("16x800-node facility on the fused engine: broker tree and "
           "stacked cross-cluster physics at ~74% node utilisation")
    modules = ("repro.experiments.facility_scale", "repro.hierarchy.fused")
    full = {"clusters": 16, "nodes_per_cluster": 800, "jobs_per_cluster": 600,
            "nodes_per_job": 64, "iterations": 100, "spacing_s": 1.5,
            "window_s": 100.0, "horizon_s": 1200.0}

    def knobs(self) -> Dict[str, Any]:
        from repro.experiments import facility_scale

        return accepted_kwargs(facility_scale.run_facility_campaign,
                               {"engine": "fused"})

    def build(self, seed: int, scale: float):
        from repro.experiments import facility_scale

        sizes = dict(self.full)
        sizes["jobs_per_cluster"] = _sized(sizes["jobs_per_cluster"], scale)
        config = facility_scale.FacilityCampaignConfig(
            **sizes, broker_policy="demand", budget_fraction=None,
            feeder_dips=True, seed=derive_seed(seed, self.name),
        )
        return {"config": config, "kwargs": self.knobs()}

    def execute(self, inputs):
        from repro.experiments import facility_scale

        return facility_scale.run_facility_campaign(inputs["config"],
                                                    **inputs["kwargs"])

    def assess(self, inputs, result) -> Outcome:
        config = inputs["config"]
        failures: List[str] = []
        per_cluster = []
        for c in result.clusters:
            site = c.result
            expected = [f"{c.name}-{i}" for i in range(config.jobs_per_cluster)]
            failures += [f"{c.name}: {p}" for p in _ends_once(
                expected, site.completed, site.never_admitted, site.truncated)]
            for e, (alloc, racks) in enumerate(zip(c.allocations_w,
                                                   c.rack_allocations_w)):
                if sum(racks) > alloc * (1 + 1e-9):
                    failures.append(f"{c.name}: racks exceed allocation "
                                    f"in epoch {e}")
            per_cluster.append([c.name, site.completed, site.never_admitted,
                                site.truncated, site.total_energy_j,
                                site.makespan_s, site.mean_turnaround_s(),
                                c.allocations_w])
        for e, budget in enumerate(result.budgets_w):
            if result.allocated_w(e) > budget * (1 + 1e-9):
                failures.append(f"allocations exceed the top budget "
                                f"in epoch {e}")
        makespan = max(c.result.makespan_s for c in result.clusters)
        # Piecewise-constant top budget; the last epoch extends to the end.
        starts = list(result.epoch_s) + [float("inf")]
        budget_ws = sum(
            b * max(0.0, min(starts[e + 1], makespan) - starts[e])
            for e, b in enumerate(result.budgets_w)
        )
        return Outcome(
            jobs=result.completed_jobs(), energy_j=result.total_energy_j,
            budget_ws=budget_ws, turnaround_s=result.mean_turnaround_s(),
            digest=digest([result.budgets_w, per_cluster]),
            failures=failures,
        )


class Stream(Workload):
    name = "stream"
    why = ("rolling streaming engine, 25,920 Poisson arrivals at 3.6/s, "
           "per-job batches: event loop and per-job overhead dominate")
    modules = ("repro.stream.engine", "repro.core.registry")
    arrivals = 25_920
    rate_per_s = 3.6
    node_count = 160
    budget_w = 35_000.0
    max_pending = 64

    def knobs(self) -> Dict[str, Any]:
        from repro.stream import engine

        return accepted_kwargs(engine.SiteStreamEngine, {
            "batched_physics": True, "admission_interval_s": 4.0,
            "per_job_batches": True,
        })

    def build(self, seed: int, scale: float):
        from repro.core.registry import create_policy
        from repro.hardware.cluster import Cluster

        return {
            "arrivals": _poisson_arrivals(
                derive_seed(seed, self.name, "arrivals"),
                _sized(self.arrivals, scale), self.rate_per_s,
                node_count=4, iterations=120, prefix="stream"),
            "cluster": Cluster(node_count=self.node_count, variation=None,
                               seed=derive_seed(seed, self.name, "hw")),
            "policy": create_policy("StaticCaps"),
            "run_seed": derive_seed(seed, self.name, "noise"),
            "kwargs": self.knobs(),
        }

    def execute(self, inputs):
        from repro.stream import engine

        site = engine.SiteStreamEngine(
            inputs["cluster"], inputs["policy"], self.budget_w,
            run_seed=inputs["run_seed"], rolling=True,
            max_pending=self.max_pending, record_jobs=False,
            record_batches=False, **inputs["kwargs"],
        )
        site.attach_source(iter(inputs["arrivals"]))
        return site, site.run()

    def assess(self, inputs, raw) -> Outcome:
        site, stats = raw
        failures = []
        arrived = len(inputs["arrivals"])
        ended = stats.jobs_completed + stats.jobs_failed + stats.rejected
        if stats.arrivals != arrived or ended != arrived:
            failures.append(f"{arrived} arrivals but {stats.arrivals} seen "
                            f"and {ended} ended")
        if len(site.queue):
            failures.append(f"{len(site.queue)} jobs still tracked at the end")
        if stats.peak_tracked_jobs > 2 * self.max_pending:
            failures.append(f"peak_tracked_jobs {stats.peak_tracked_jobs} > "
                            f"2 x max_pending")
        return Outcome(
            jobs=stats.jobs_completed, energy_j=stats.energy_j,
            budget_ws=self.budget_w * stats.clock_s,
            turnaround_s=stats.mean_turnaround_s(),
            digest=digest(dataclasses.asdict(stats)), failures=failures,
        )


class Site(Workload):
    name = "site"
    why = ("scalar shift loop under the cascade fault scenario, once per "
           "paper policy: per-batch execute, characterization, faults, S=1")
    modules = ("repro.manager.site_simulation", "repro.core.registry",
               "repro.faults.scenarios")
    policies = ("Precharacterized", "StaticCaps", "MinimizeWaste",
                "JobAdaptive", "MixedAdaptive")
    arrivals = 2_700
    rate_per_s = 1.5
    shift_s = 1_800.0
    node_count = 1_024
    budget_fraction = 0.7

    def build(self, seed: int, scale: float):
        from repro.core.registry import create_policy
        from repro.faults.scenarios import build_scenario
        from repro.hardware.cluster import QUARTZ_CPU, QUARTZ_VARIATION, Cluster
        from repro.hardware.node import NodePowerModel

        count = _sized(self.arrivals, scale)
        budget_w = (self.budget_fraction * NodePowerModel(QUARTZ_CPU, 2).tdp_w
                    * self.node_count)
        shift_s = max(1.0, self.shift_s * count / self.arrivals)
        return {
            "arrivals": _poisson_arrivals(
                derive_seed(seed, self.name, "arrivals"), count,
                self.rate_per_s, node_count=32, iterations=100, prefix="job"),
            "cluster": Cluster(node_count=self.node_count,
                               variation=QUARTZ_VARIATION,
                               seed=derive_seed(seed, self.name, "hw")),
            "policies": [create_policy(p) for p in self.policies],
            "budget_w": budget_w,
            "schedule": build_scenario("cascade", budget_w, self.node_count,
                                       shift_s),
            "run_seed": derive_seed(seed, self.name, "noise"),
        }

    def execute(self, inputs):
        from repro.manager import site_simulation

        return [
            site_simulation.run_site_simulation(
                inputs["arrivals"], inputs["cluster"], policy,
                inputs["budget_w"], max_batches=1000,
                run_seed=inputs["run_seed"],
                fault_schedule=inputs["schedule"],
            )
            for policy in inputs["policies"]
        ]

    def assess(self, inputs, results) -> Outcome:
        expected = [a.request.name for a in inputs["arrivals"]]
        failures: List[str] = []
        budget_ws = 0.0
        turnarounds: List[float] = []
        summary = []
        for r in results:
            failures += [f"{r.policy_name}: {p}" for p in _ends_once(
                expected, r.completed, r.never_admitted, r.truncated)]
            busy_s = sum(b.duration_s for b in r.batches)
            budget_ws += sum(b.budget_w * b.duration_s for b in r.batches)
            budget_ws += inputs["budget_w"] * max(0.0, r.makespan_s - busy_s)
            turnarounds += r.job_turnaround_s.values()
            summary.append([r.policy_name, r.completed, r.never_admitted,
                            r.truncated, r.total_energy_j, r.makespan_s,
                            r.mean_turnaround_s(), r.total_overshoot_ws(),
                            [b.degradation_tier for b in r.batches]])
        return Outcome(
            jobs=sum(len(r.completed) for r in results),
            energy_j=sum(r.total_energy_j for r in results),
            budget_ws=budget_ws,
            turnaround_s=sum(turnarounds) / max(1, len(turnarounds)),
            digest=digest(summary), failures=failures,
        )


class Runtime(Workload):
    name = "runtime"
    why = ("GEOPM-style agent loop: 56 Fig. 5 kernels x 5 agents on 100 "
           "hosts, as one C=280 batch and as 280 serial controllers")
    modules = ("repro.runtime.batch", "repro.runtime.controller",
               "repro.runtime.power_balancer", "repro.runtime.power_governor",
               "repro.runtime.monitor", "repro.runtime.frequency_governor")
    hosts = 100
    max_epochs = 300
    noise_std = 0.003

    def _agents(self, tdp_w: float) -> List[Tuple[str, Any, float]]:
        """``(label, factory, budget_w)`` for the five agent kinds."""
        from repro.runtime.frequency_governor import FrequencyGovernorAgent
        from repro.runtime.monitor import MonitorAgent
        from repro.runtime.power_balancer import PowerBalancerAgent
        from repro.runtime.power_governor import PowerGovernorAgent

        full = tdp_w * self.hosts
        return [
            ("balancer-tdp", lambda: PowerBalancerAgent(job_budget_w=full),
             full),
            ("balancer-0.8",
             lambda: PowerBalancerAgent(job_budget_w=0.8 * full), 0.8 * full),
            ("governor-0.8",
             lambda: PowerGovernorAgent(job_budget_w=0.8 * full), 0.8 * full),
            ("monitor", MonitorAgent, full),
            # No batched form: runs through the per-run fallback path.
            ("frequency-1.8",
             lambda: FrequencyGovernorAgent(target_freq_ghz=1.8), full),
        ]

    def build(self, seed: int, scale: float):
        from repro.hardware.cluster import QUARTZ_VARIATION, Cluster
        from repro.runtime.batch import ControllerRunSpec
        from repro.sim.engine import ExecutionModel
        from repro.workload.job import Job
        from repro.workload.kernel import KernelConfig

        model = ExecutionModel()
        configs = [
            KernelConfig(intensity=i, waiting_fraction=w, imbalance=m)
            for i in FIG5_INTENSITIES for w, m in FIG5_COLUMNS
        ]
        configs = configs[:_sized(len(configs), scale)]
        # Each kernel config runs on its own 100 hosts of one Quartz-like
        # cluster (all five agents on the same hosts): convergence depends
        # on the host draw, and 56 draws average out where one would set
        # the work of every run at once.
        eff = Cluster(node_count=self.hosts * len(configs),
                      variation=QUARTZ_VARIATION,
                      seed=derive_seed(seed, self.name, "hw")).efficiencies
        eff = eff.reshape(len(configs), self.hosts)
        agents = self._agents(model.power_model.tdp_w)

        def specs():
            return [
                ControllerRunSpec(
                    job=Job(name=f"{label}/{c.label()}", config=c,
                            node_count=self.hosts),
                    efficiencies=eff[k], agent=factory(),
                    noise_std=self.noise_std,
                    seed=derive_seed(seed, self.name, label, k),
                )
                for label, factory, _ in agents
                for k, c in enumerate(configs)
            ]

        budgets = [b for _, _, b in agents for _ in configs]
        # Agents carry state, so each path gets its own specs.
        return {"model": model, "batch": specs(), "serial": specs(),
                "budgets": budgets}

    def execute(self, inputs):
        from repro.runtime import batch, controller

        model = inputs["model"]
        batched = batch.run_controller_batch(
            inputs["batch"], model=model, max_epochs=self.max_epochs)
        serial = [
            controller.Controller(
                s.job, s.efficiencies, s.agent, model=model,
                noise_std=s.noise_std, seed=s.seed,
            ).run(max_epochs=self.max_epochs)
            for s in inputs["serial"]
        ]
        return list(batched.reports), serial

    def assess(self, inputs, raw) -> Outcome:
        batch_reports, serial_reports = raw
        names = [s.job.name for s in inputs["batch"]]
        failures = []
        for label, reports in (("batch", batch_reports),
                               ("serial", serial_reports)):
            if [r.job_name for r in reports] != names:
                failures.append(f"{label}: one report per run expected")
        mismatched = sum(a.hosts != b.hosts
                         for a, b in zip(batch_reports, serial_reports))
        if mismatched:
            failures.append(f"{mismatched} runs differ between batch and "
                            f"serial controllers")
        reports = batch_reports + serial_reports
        runtimes = [r.hosts[0].runtime_s for r in reports]
        budgets = inputs["budgets"] * 2
        return Outcome(
            jobs=len(reports),
            energy_j=sum(r.total_energy_j() for r in reports),
            budget_ws=sum(b * t for b, t in zip(budgets, runtimes)),
            turnaround_s=sum(runtimes) / len(runtimes),
            digest=digest([[r.job_name, r.agent, r.hosts[0].epochs,
                            r.total_energy_j(), r.hosts[0].runtime_s]
                           for r in batch_reports]),
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (Facility(), Stream(), Site(), Runtime())}
