#!/usr/bin/env python3
"""Tour of the unified telemetry subsystem.

Every layer of this stack — the GEOPM-style runtime, the resource
manager, the simulator, the experiment grid — records what it does
through one pipeline: structured events on a process-global
:class:`~repro.telemetry.EventBus` plus exact counters in a
:class:`~repro.telemetry.MetricsRegistry` and timed spans on the
tracer.  Levels and durations (utilization, batch duration) ride in the
payload of the event that reports them.  This example shows the three
ways to consume it:

1. **live subscription** — attach a callback and watch events as the
   stack runs (how a dashboard or an external RM would integrate);
2. **metrics snapshot** — the end-of-run roll-up every report embeds:
   counters, span totals and event counts, all exact;
3. **event-log export** — JSONL for offline analysis.  The bus keeps
   history only inside ``telemetry.recording()`` (as ``--telemetry-out``
   runs do), so the launches run inside one.

Run with::

    python examples/telemetry_tour.py
"""

import tempfile
from pathlib import Path

from repro import telemetry
from repro.characterization import derive_budgets
from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager import PowerManager, Scheduler
from repro.workload.mixes import MixBuilder


def main() -> None:
    print("Telemetry tour\n")
    telemetry.reset()  # start from a clean global pipeline

    # 1. Live subscription: print manager-layer completions as they
    #    happen.  Producers never know we are listening.
    def on_launch(event):
        payload = event.payload
        print(
            f"  [live] {event.source}/{event.kind}: "
            f"policy={payload['policy']} "
            f"mean_power={payload['mean_power_w']:.0f} W"
        )

    token = telemetry.get_bus().subscribe(
        on_launch, kinds=["launch_complete"]
    )

    # Run a real workload: characterize one mix, then launch it under
    # two policies against the ideal budget.
    cluster = Cluster(node_count=100, seed=2021)
    mix = MixBuilder(nodes_per_job=5, iterations=20).build("WastefulPower")
    scheduled = Scheduler(cluster).allocate(mix)
    manager = PowerManager()
    char = manager.characterize(scheduled)
    budgets = derive_budgets(char)
    print("Launching WastefulPower under two policies:")
    with telemetry.recording():
        for policy_name in ("StaticCaps", "MixedAdaptive"):
            manager.launch(
                scheduled, create_policy(policy_name), budgets.ideal_w,
                characterization=char,
            )
    telemetry.get_bus().unsubscribe(token)

    # 2. The metrics snapshot: what `python -m repro telemetry` and the
    #    report's Telemetry section print.
    print("\n" + telemetry.TelemetrySummary.capture().render())

    # 3. Export the event log recorded during the launches.
    out = Path(tempfile.mkdtemp()) / "events.jsonl"
    telemetry.get_bus().to_jsonl(out)
    print(f"\nEvent log written to {out}")
    print(f"Sources seen: {', '.join(telemetry.get_bus().sources())}")


if __name__ == "__main__":
    main()
