#!/usr/bin/env python3
"""Beyond the paper: fault injection and graceful degradation.

The paper's conclusion asks for policies that "minimize the loss of
quality of service in exceptional cases".  This tour makes the
exceptional cases concrete:

1. **A fault timeline** — one deterministic `FaultSchedule` describing a
   shift that loses budget, hosts, and telemetry.
2. **The degradation ladder** — what the manager plans when the full
   re-plan, the characterization, or the budget itself is unavailable.
3. **A resilience matrix** — two policies scored against named scenarios
   on QoS loss and budget-overshoot watt-seconds.

Run with::

    python examples/fault_tour.py
"""

import numpy as np

from repro.analysis.render import render_table
from repro.core.registry import create_policy
from repro.faults import FaultSchedule, plan_with_degradation
from repro.experiments.resilience import run_resilience_suite


def timeline_demo() -> None:
    print("Part 1 — one shift's fault timeline\n")
    schedule = (
        FaultSchedule(name="bad-afternoon")
        .budget_drop(120.0, 4000.0, ramp_s=60.0)
        .node_failure(200.0, (3, 7))
        .sensor_dropout(260.0, 90.0)
        .node_recovery(400.0, (3, 7))
        .budget_restore(480.0, 6000.0)
    )
    rows = []
    for t in (0.0, 150.0, 220.0, 300.0, 500.0):
        failed = sorted(schedule.failed_hosts_at(t))
        dark = bool(schedule.sensor_dropout_at(t))
        rows.append([
            f"{t:.0f} s",
            f"{schedule.budget_at(t, 6000.0) / 1e3:.2f} kW",
            str(failed) if failed else "-",
            "DARK" if dark else "ok",
        ])
    print(render_table(
        ["time", "budget in force", "failed hosts", "telemetry"],
        rows,
        title="FaultSchedule queries (base budget 6.0 kW)",
    ))
    print("\nThe same object drives every layer: the site loop reads the "
          "budget and failed\nhosts, the engine applies cap faults, the "
          "runtime injector blinds the agent.\n")


def ladder_demo() -> None:
    print("Part 2 — the graceful-degradation ladder\n")
    from repro.characterization import derive_budgets
    from repro.hardware import Cluster
    from repro.manager import PowerManager, Scheduler
    from repro.workload.mixes import MixBuilder

    cluster = Cluster(node_count=30, seed=2021)
    mix = MixBuilder(nodes_per_job=3, iterations=6).build("WastefulPower")
    scheduled = Scheduler(cluster).allocate(mix)
    char = PowerManager().characterize(scheduled)
    budgets = derive_budgets(char)
    floor_w = char.host_count * char.min_cap_w

    policy = create_policy("MixedAdaptive")
    rows = []
    for label, budget, have_char in (
        ("budget drop, characterization fresh", budgets.ideal_w, True),
        ("same drop, telemetry dark", budgets.ideal_w, False),
        ("brownout below the floor", 0.9 * floor_w, False),
    ):
        decision = plan_with_degradation(
            policy, budget,
            characterization=char if have_char else None,
            current_caps_w=None if have_char else np.full(
                char.host_count, 220.0
            ),
        )
        rows.append([
            label,
            f"{budget / 1e3:.2f} kW",
            decision.tier,
            "yes" if decision.feasible else "NO",
            f"{float(np.sum(decision.caps_w)) / 1e3:.2f} kW",
        ])
    print(render_table(
        ["situation", "budget", "tier", "feasible", "planned caps sum"],
        rows,
        title=f"plan_with_degradation on {char.host_count} hosts "
              f"(floor {floor_w / 1e3:.2f} kW)",
    ))
    print("\nTier 'replan' re-runs the policy and returns the caps to "
          "program (shaped per job\nby the in-job balancer for "
          "MixedAdaptive); 'clamp' scales above-floor caps without\njob "
          "knowledge; 'floor' refuses to pretend — the budget is infeasible "
          "and says so.\n")


def resilience_demo() -> None:
    print("Part 3 — policies under the standard scenarios\n")
    report = run_resilience_suite(
        scenarios=("budget-step", "sensor-blackout", "stuck-caps"),
        policies=("StaticCaps", "MixedAdaptive"),
        jobs=3,
        nodes_per_job=3,
        iterations=6,
    )
    print(report.render())
    losses = report.qos_loss_by_policy()
    best = min(losses, key=losses.get)
    print("\nMean QoS loss over feasible scenarios: " + ", ".join(
        f"{p}: {q:+.1f}%" for p, q in losses.items()
    ))
    print(f"Lowest loss: {best}. Stuck RAPL domains dominate the loss "
          "(a floor-pinned host drags\nthe whole bulk-synchronous job); "
          "sensor blackouts degrade planning to the\n"
          "characterization-free clamp tier. Planned overshoot stays zero "
          "on feasible\nscenarios — `python -m repro faults --check` "
          "gates CI on exactly that.")


def main() -> None:
    timeline_demo()
    ladder_demo()
    resilience_demo()


if __name__ == "__main__":
    main()
