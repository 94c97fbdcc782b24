#!/usr/bin/env python3
"""A day at the site: admission control, dispatch, and the power dashboard.

This example plays out the resource-manager workflow end to end, the way
an operator would see it:

1. users submit a queue of jobs (some with power hints, most without);
2. power-aware admission decides which jobs start now against the site's
   deliverable power and node pool — with and without backfill;
3. the admitted set runs under the MixedAdaptive policy;
4. a session of mixes produces the facility power trace the Fig. 1
   dashboard would show.

Run with::

    python examples/site_operations.py
"""


from repro.analysis.render import render_table
from repro.core.registry import create_policy
from repro.experiments.facility_integration import simulate_session
from repro.experiments.grid import ExperimentConfig, ExperimentGrid
from repro.hardware.cluster import Cluster
from repro.manager.admission import PowerAwareAdmission
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobQueue, JobRequest
from repro.manager.scheduler import Scheduler
from repro.workload.job import WorkloadMix
from repro.workload.kernel import KernelConfig


def admission_demo() -> None:
    print("Step 1-2 — the morning queue meets the power budget\n")
    queue = JobQueue()
    queue.submit(JobRequest("climate-ensemble", KernelConfig(intensity=16.0),
                            node_count=12))
    queue.submit(JobRequest(
        "graph-analytics",
        KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
        node_count=8,
    ))
    queue.submit(JobRequest("cfd-sweep", KernelConfig(intensity=32.0),
                            node_count=10, power_hint_w=225.0))
    queue.submit(JobRequest("post-processing", KernelConfig(intensity=0.5),
                            node_count=4))

    budget_w = 30 * 200.0   # 6 kW deliverable to this partition
    nodes = 30
    admission = PowerAwareAdmission(backfill=True)
    decision = admission.decide(queue, budget_w, nodes, mark=False)

    rows = []
    for request in queue.pending():
        estimate = decision.estimates_w[request.name]
        status = "ADMIT" if request.name in decision.admitted else "defer"
        rows.append([
            request.name, request.node_count,
            f"{estimate / request.node_count:.0f} W",
            f"{estimate / 1e3:.2f} kW", status,
        ])
    print(render_table(
        ["job", "nodes", "est. W/node", "est. total", "decision"],
        rows,
        title=f"Admission against {budget_w / 1e3:.1f} kW / {nodes} nodes "
              "(backfill on)",
    ))
    print(f"\nAdmitted draw: {decision.admitted_power_w / 1e3:.2f} kW of "
          f"{budget_w / 1e3:.1f} kW; {decision.admitted_nodes} of "
          f"{nodes} nodes.\n")

    strict = PowerAwareAdmission(backfill=False).decide(
        queue, budget_w, nodes, mark=False
    )
    print(f"Strict FIFO would admit {len(strict.admitted)} job(s); backfill "
          f"admits {len(decision.admitted)} — the blocked job never starves, "
          "it just stops later arrivals only in FIFO mode.\n")


def dispatch_demo() -> None:
    print("Step 3 — the admitted set runs under MixedAdaptive\n")
    queue = JobQueue()
    queue.submit(JobRequest("climate-ensemble", KernelConfig(intensity=16.0),
                            node_count=12, iterations=30))
    queue.submit(JobRequest(
        "graph-analytics",
        KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
        node_count=8, iterations=30,
    ))
    budget_w = 20 * 225.0
    admission = PowerAwareAdmission()
    decision = admission.decide(queue, budget_w, nodes_available=20)
    admitted = [queue.get(name) for name in decision.admitted]
    mix = WorkloadMix(
        name="morning-batch", jobs=tuple(r.to_job() for r in admitted)
    )

    cluster = Cluster(node_count=40, seed=7)
    scheduled = Scheduler(cluster).allocate(mix)
    manager = PowerManager()
    run = manager.launch(scheduled, create_policy("MixedAdaptive"), budget_w)
    for name in decision.admitted:
        queue.complete(name)

    rows = [
        [job, f"{elapsed:.2f} s", f"{energy / 1e3:.0f} kJ"]
        for job, elapsed, energy in zip(
            run.result.job_names, run.result.job_elapsed_s,
            run.result.job_energy_j,
        )
    ]
    print(render_table(["job", "elapsed", "energy"], rows,
                       title=f"Batch outcome at {budget_w / 1e3:.1f} kW "
                             f"({run.result.budget_utilization():.0%} utilised)"))
    print()


def dashboard_demo() -> None:
    print("Step 4 — the facility dashboard over a session of mixes\n")
    grid = ExperimentGrid(ExperimentConfig.small(nodes_per_job=10, iterations=30))
    rows = []
    for policy in ("StaticCaps", "MixedAdaptive"):
        session = simulate_session(
            grid, policy, budget_level="ideal",
            mixes=["WastefulPower", "HighPower", "LowPower"],
        )
        stats = session.utilisation_stats()
        rows.append([
            policy,
            f"{session.total_duration_s:.1f} s",
            f"{session.total_energy_j / 1e6:.2f} MJ",
            f"{stats['peak_utilisation']:.0%}",
            f"{stats['mean_utilisation']:.0%}",
        ])
    print(render_table(
        ["policy", "session length", "energy", "utilisation (full)",
         "utilisation (mean)"],
        rows,
        title="Three mixes back to back at the ideal budget",
    ))
    print(
        "\nTwo observations an operator acts on: the integrated policy "
        "finishes the\nsame work with less energy, and mean utilisation sags "
        "well below the\nfull-cluster level because jobs drain at different "
        "times — exactly the\nstranded power that admission-control backfill "
        "(step 2) exists to reclaim."
    )


def main() -> None:
    admission_demo()
    dispatch_demo()
    dashboard_demo()


if __name__ == "__main__":
    main()
