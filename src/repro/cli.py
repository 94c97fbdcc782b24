"""Command-line interface: ``python -m repro <command>``.

Subcommands covering the workflows a site operator runs:

``survey``
    The Fig. 6 hardware-variation survey: cluster sizes and bands.
``characterize``
    Characterize one mix (Figs. 4-5 data) and optionally save the JSON
    artefact for later planning.
``budgets``
    Table III for one or all mixes, from a fresh or saved
    characterization.
``grid``
    The full policy x mix x budget evaluation (Figs. 7-8), with CSV
    export.
``facility``
    The Fig. 1 facility-trace statistics.
``report`` / ``figures``
    The one-call reproduction report and the SVG figure set.
``telemetry``
    Exercise every instrumented layer and dump the metrics snapshot and
    event log — the observability smoke test.

``site``
    The arrival-driven site simulation, replayed under independent
    noise seeds for confidence intervals.
``stream``
    The event-driven streaming site engine under sustained Poisson
    load (rolling admission, bounded memory), or — with ``--serve`` —
    the asyncio daemon speaking the ``repro.stream.v1`` protocol;
    ``--daemon-smoke`` drives it with a synthetic client burst (the CI
    smoke).
``faults``
    Replay the named fault scenarios (budget drops, node loss, sensor
    blackouts, stuck caps) against the policies and report QoS loss and
    budget-overshoot watt-seconds; ``--check`` gates on zero planned
    overshoot (the CI resilience smoke).  ``REPRO_SMOKE=1`` shrinks the
    suite for CI.

Every command accepts ``--scale`` (nodes per job; 100 = paper scale) so
the same invocations work on a laptop and at full size.  ``grid``,
``characterize``, ``site``, and ``faults`` accept ``--telemetry-out
DIR`` to save the run's metrics snapshot, JSONL/CSV event logs, span
tree (``trace.json``), and provenance ledger (``provenance.json``).
``--workers N`` fans the grid cells, site replays and facility cluster
groups over a process pool.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro import __version__
from repro.analysis.render import render_table
from repro.core.registry import POLICY_NAMES
from repro.faults.scenarios import SCENARIO_NAMES
from repro.workload.mixes import MIX_NAMES

if TYPE_CHECKING:
    from repro.experiments.grid import ExperimentConfig, ExperimentGrid

__all__ = ["main", "build_parser"]

_EPILOG = """\
examples:
  repro --scale 5 survey                    quick variation survey
  repro characterize HighPower --save c.json
  repro --scale 10 grid --csv cells.csv --check
  repro --scale 10 --workers 4 grid         fan cells over 4 processes
  repro --scale 4 grid --telemetry-out /tmp/telemetry
  repro --workers 4 site --replays 8        replayed site simulation
  repro telemetry                           observability smoke test
  repro report -o report.md                 full reproduction report

Scale 100 reproduces the paper (2000-node survey, 900-node mixes).
REPRO_WORKERS in the environment sets the default for --workers.
"""


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (clear error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid positive int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _float(text: str) -> float:
    """argparse helper: parse a float, with argparse's error style."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive, finite number."""
    value = _float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive number (got {text})"
        )
    return value


def _fraction(text: str) -> float:
    """argparse type: a fraction in (0, 1]."""
    value = _float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in (0, 1] (got {text})"
        )
    return value


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    from repro.experiments.grid import ExperimentConfig

    if args.scale >= 100:
        return ExperimentConfig(nodes_per_job=args.scale,
                                survey_nodes=max(2000, 25 * args.scale))
    return ExperimentConfig.small(nodes_per_job=args.scale)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified power-management stack reproduction "
                    "(Wilson et al., IPDPS-W 2021)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--scale", type=_positive_int, default=10,
                        metavar="NODES",
                        help="nodes per job (100 = paper scale; default 10)")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        metavar="N",
                        help="worker processes for grid cells / site "
                             "replays / facility cluster groups "
                             "(default: $REPRO_WORKERS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("survey", help="Fig. 6 hardware-variation survey")

    p_char = sub.add_parser("characterize",
                            help="characterize a mix (Figs. 4-5 data)")
    p_char.add_argument("mix", choices=MIX_NAMES)
    p_char.add_argument("--save", metavar="PATH",
                        help="write the characterization JSON here")
    p_char.add_argument("--telemetry-out", metavar="DIR",
                        help="dump the metrics snapshot and event log here")

    p_budget = sub.add_parser("budgets", help="Table III budgets")
    p_budget.add_argument("mix", nargs="?", choices=MIX_NAMES,
                          help="one mix (default: all)")

    p_grid = sub.add_parser("grid", help="full evaluation grid (Figs. 7-8)")
    p_grid.add_argument("--mix", action="append", choices=MIX_NAMES,
                        dest="mixes", help="restrict to a mix (repeatable)")
    p_grid.add_argument("--csv", metavar="PATH",
                        help="export the cell summaries as CSV")
    p_grid.add_argument("--check", action="store_true",
                        help="also run the takeaway checks")
    p_grid.add_argument("--telemetry-out", metavar="DIR",
                        help="dump the metrics snapshot and event log here "
                             "(also runs the runtime-layer probe)")

    sub.add_parser("facility", help="Fig. 1 facility-trace statistics")

    p_fsim = sub.add_parser(
        "facility-sim",
        help="hierarchical facility campaign: budget-broker tree over "
             "multi-cluster site simulations on the fused engine "
             "(50k+ nodes; --workers splits the clusters into groups)",
    )
    p_fsim.add_argument("--clusters", type=_positive_int, default=16,
                        metavar="N", help="leaf clusters (default 16)")
    p_fsim.add_argument("--nodes-per-cluster", type=_positive_int,
                        default=3200, metavar="N",
                        help="nodes per cluster (default 3200; the "
                             "defaults simulate 51 200 nodes)")
    p_fsim.add_argument("--jobs", type=_positive_int, default=48,
                        metavar="N",
                        help="arriving jobs per cluster (default 48)")
    p_fsim.add_argument("--window", type=_positive_float, default=300.0,
                        metavar="S",
                        help="broker rebalance window (default 300 s)")
    p_fsim.add_argument("--horizon", type=_positive_float, default=3600.0,
                        metavar="S",
                        help="facility horizon (default 3600 s)")
    p_fsim.add_argument("--broker-policy", default="demand",
                        choices=("uniform", "demand", "priority"),
                        help="apportionment policy at the facility broker")
    p_fsim.add_argument("--policy", default="MixedAdaptive",
                        choices=POLICY_NAMES,
                        help="node-level allocation policy in the leaves")
    p_fsim.add_argument("--budget-fraction", type=_fraction, default=None,
                        metavar="FRAC",
                        help="constant top budget as a fraction of "
                             "aggregate capacity (default: sample the "
                             "Fig. 1 trace for a time-varying budget)")
    p_fsim.add_argument("--no-feeder-dips", action="store_true",
                        dest="no_feeder_dips",
                        help="disable the local feeder-limit fault dips")
    p_fsim.add_argument("--seed", type=int, default=23,
                        help="facility seed (deterministic campaigns)")
    p_fsim.add_argument("--rows", type=_positive_int, default=8,
                        metavar="N",
                        help="per-cluster table rows to print (default 8)")
    p_fsim.add_argument("--telemetry-out", metavar="DIR",
                        help="dump the metrics snapshot, event log, span "
                             "tree, and provenance ledger here")
    p_fsim.add_argument("--profile", action="store_true",
                        help="cProfile the campaign and write profile.pstats"
                             " + profile.txt (span-attributed hot frames) "
                             "under --telemetry-out (required)")

    p_site = sub.add_parser(
        "site", help="arrival-driven site simulation with noise replays"
    )
    p_site.add_argument("--policy", default="MixedAdaptive",
                        choices=POLICY_NAMES, help="allocation policy")
    p_site.add_argument("--jobs", type=_positive_int, default=6,
                        metavar="N", help="arriving jobs (default 6)")
    p_site.add_argument("--replays", type=_positive_int, default=4,
                        metavar="N",
                        help="independent noise replays (default 4)")
    p_site.add_argument("--telemetry-out", metavar="DIR",
                        help="dump the metrics snapshot, event log, span "
                             "tree, and provenance ledger here")

    p_stream = sub.add_parser(
        "stream",
        help="event-driven streaming site engine (sustained load / daemon)",
    )
    p_stream.add_argument("--policy", default="MixedAdaptive",
                          choices=POLICY_NAMES, help="allocation policy")
    p_stream.add_argument("--rate", type=float, default=1.5, metavar="PER_S",
                          help="Poisson arrival rate in jobs per simulated "
                               "second (default 1.5 ≈ 130k jobs/day)")
    p_stream.add_argument("--duration", type=float, default=600.0,
                          metavar="S",
                          help="simulated stream length (default 600 s)")
    p_stream.add_argument("--seed", type=int, default=0,
                          help="arrival-stream and noise seed")
    p_stream.add_argument("--admission-interval", type=float, default=None,
                          metavar="S",
                          help="quantise admission to one flush per S "
                               "simulated seconds so concurrent batches "
                               "pile up for the stacked engine pass")
    p_stream.add_argument("--per-job-batches", action="store_true",
                          help="split each admitted set into one batch "
                               "per job (more, smaller concurrent batches)")
    p_stream.add_argument("--max-pending", type=_positive_int, default=64,
                          metavar="N",
                          help="queue backpressure bound (default 64)")
    p_stream.add_argument("--budget-drop", type=float, default=None,
                          metavar="FRACTION",
                          help="drop the facility budget to this fraction "
                               "halfway through the stream")
    p_stream.add_argument("--serve", action="store_true",
                          help="run the asyncio daemon instead: prints "
                               "host:port, serves repro.stream.v1 clients "
                               "until one sends shutdown")
    p_stream.add_argument("--port", type=int, default=0,
                          help="daemon port (default 0 = OS-assigned)")
    p_stream.add_argument("--daemon-smoke", action="store_true",
                          dest="daemon_smoke",
                          help="start the daemon, drive it with a synthetic "
                               "client burst, and exit non-zero on any "
                               "protocol failure (the CI smoke)")
    p_stream.add_argument("--telemetry-out", metavar="DIR",
                          help="dump the metrics snapshot and event log here")
    p_stream.add_argument("--profile", action="store_true",
                          help="cProfile the stream run and write "
                               "profile.pstats + profile.txt "
                               "(span-attributed hot frames) under "
                               "--telemetry-out (required)")

    p_faults = sub.add_parser(
        "faults",
        help="replay named fault scenarios and score policy resilience",
    )
    p_faults.add_argument("--list", action="store_true", dest="list_only",
                          help="list the scenario names and exit")
    p_faults.add_argument("--scenario", action="append",
                          choices=SCENARIO_NAMES, dest="scenarios",
                          help="restrict to a scenario (repeatable; "
                               "default: the full standard suite)")
    p_faults.add_argument("--policy", action="append", choices=POLICY_NAMES,
                          dest="policies",
                          help="restrict to a policy (repeatable; "
                               "default: all five)")
    p_faults.add_argument("--check", action="store_true",
                          help="exit non-zero unless the compliance checks "
                               "hold (zero planned overshoot on feasible "
                               "scenarios)")
    p_faults.add_argument("--controller-study", action="store_true",
                          dest="controller_study",
                          help="run the scenarios against the authentic "
                               "balancer feedback loop (one batched "
                               "controller run) instead of the site suite")
    p_faults.add_argument("--telemetry-out", metavar="DIR",
                          help="dump the metrics snapshot, event log, span "
                               "tree, and provenance ledger here")

    p_tel = sub.add_parser(
        "telemetry",
        help="exercise every instrumented layer and dump the telemetry",
    )
    p_tel.add_argument("-o", "--out", metavar="DIR",
                       help="write metrics.txt / events.jsonl / events.csv here")

    p_report = sub.add_parser(
        "report", help="full reproduction report (all tables + checks)"
    )
    p_report.add_argument("-o", "--output", metavar="PATH",
                          help="write Markdown here (default: stdout)")

    p_figs = sub.add_parser("figures", help="render the figures as SVG files")
    p_figs.add_argument("-o", "--output", metavar="DIR", default="figures",
                        help="output directory (default: ./figures)")
    return parser


def _run_runtime_probe(grid: ExperimentGrid, nodes: int = 4,
                       max_epochs: int = 100) -> None:
    """Exercise the authentic runtime feedback loop for telemetry.

    The evaluation grid characterizes analytically, so a plain ``grid``
    run never touches the per-job controller; this probe runs one real
    :class:`~repro.runtime.controller.Controller` convergence under the
    power balancer (with a tracer attached) so the runtime layer —
    controller spans, balancer convergence metrics, trace events — is
    represented in the dumped telemetry.
    """
    from repro.runtime.controller import Controller
    from repro.runtime.power_balancer import PowerBalancerAgent
    from repro.runtime.trace import attach_tracer
    from repro.workload.job import Job
    from repro.workload.kernel import KernelConfig

    job = Job(
        name="telemetry-probe",
        config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
        node_count=nodes,
    )
    agent = PowerBalancerAgent(
        job_budget_w=nodes * grid.model.power_model.tdp_w
    )
    controller = Controller(job, np.ones(nodes), agent, model=grid.model)
    writer = attach_tracer(controller)
    controller.run(max_epochs=max_epochs)
    writer.close()


def _dump_telemetry(out_dir: str, kind: str = "run", config: object = None,
                    inputs: Optional[dict] = None,
                    seed: Optional[int] = None) -> None:
    """Write the full observability bundle under ``out_dir``.

    ``metrics.txt`` + ``events.jsonl`` / ``events.csv`` (the classic
    dump), plus ``trace.json`` (the hierarchical span tree) and
    ``provenance.json`` (the schema'd run ledger).
    """
    from repro.telemetry import (
        TelemetrySummary, capture_ledger, get_bus, get_tracer, write_ledger,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = TelemetrySummary.capture()
    metrics_path = out / "metrics.txt"
    metrics_path.write_text(summary.render() + "\n", encoding="utf-8")
    jsonl_path = get_bus().to_jsonl(out / "events.jsonl")
    csv_path = get_bus().to_csv(out / "events.csv")
    trace_path = get_tracer().to_json(out / "trace.json")
    ledger_path = write_ledger(
        capture_ledger(kind, config, inputs=inputs, seed=seed),
        out / "provenance.json",
    )
    print(f"\nWrote telemetry to {metrics_path}, {jsonl_path}, {csv_path}, "
          f"{trace_path}, {ledger_path}")


def _maybe_profile(profile: bool):
    """``profile_command()`` when profiling, else a null context."""
    if not profile:
        from contextlib import nullcontext

        return nullcontext(None)
    from repro.telemetry import profile_command

    return profile_command()


def _maybe_write_profile(out_dir: str, profiler) -> None:
    """Write the profile artifacts when a profiler was active."""
    if profiler is None:
        return
    from repro.telemetry import get_tracer, write_profile

    pstats_path, txt_path = write_profile(
        out_dir, profiler, get_tracer().totals()
    )
    print(f"Wrote profile to {pstats_path}, {txt_path}")


def _cmd_telemetry(grid: ExperimentGrid, out: Optional[str]) -> int:
    """The observability smoke test: touch every layer, dump everything."""
    from repro.core.registry import create_policy
    from repro.manager.admission import PowerAwareAdmission
    from repro.manager.queue import JobRequest
    from repro.manager.site_simulation import Arrival, run_site_simulation
    from repro.telemetry import TelemetrySummary
    from repro.workload.kernel import KernelConfig

    # Runtime layer: a real controller/balancer convergence run.
    _run_runtime_probe(grid)

    # Experiments + manager + sim layers: one grid cell.
    grid.run_cell(grid.config.mixes[0], "ideal", "MixedAdaptive")

    # Manager layer: admission + a short arrival-driven site shift.
    nodes = max(4, grid.config.nodes_per_job)
    cluster = grid.partition.subset(np.arange(3 * nodes))
    requests = [
        JobRequest(f"probe-job-{i}",
                   KernelConfig(intensity=float(2 ** (i + 1)),
                                waiting_fraction=0.25 * (i % 2), imbalance=1 + i % 2),
                   node_count=nodes, iterations=10)
        for i in range(3)
    ]
    PowerAwareAdmission(model=grid.model).decide(
        _submitted_queue(requests), budget_w=nodes * 3 * 240.0,
        nodes_available=len(cluster), mark=False,
    )
    run_site_simulation(
        [Arrival(time_s=float(i), request=r) for i, r in enumerate(requests)],
        cluster,
        create_policy("MixedAdaptive"),
        budget_w=nodes * 3 * 200.0,
    )

    print(TelemetrySummary.capture().render())
    if out:
        _dump_telemetry(out, kind="telemetry", config=grid.config)
    return 0


def _submitted_queue(requests):
    """A fresh queue with the given requests submitted."""
    from repro.manager.queue import JobQueue

    queue = JobQueue()
    for request in requests:
        queue.submit(request)
    return queue


def _cmd_survey(grid: ExperimentGrid) -> int:
    survey = grid.survey
    rows = []
    for name in ("low", "medium", "high"):
        freqs = survey.frequencies_ghz[survey.cluster_node_ids(name)]
        rows.append([name, freqs.size, f"{freqs.mean():.2f}",
                     f"{freqs.min():.2f}-{freqs.max():.2f}"])
    print(render_table(["cluster", "nodes", "mean GHz", "range GHz"], rows,
                       title=f"Variation survey ({grid.config.survey_nodes} "
                             f"nodes @ {grid.config.survey_cap_w:.0f} W caps)"))
    return 0


def _cmd_characterize(grid: ExperimentGrid, mix: str, save: Optional[str],
                      telemetry_out: Optional[str] = None) -> int:
    prepared = grid.prepare_mix(mix)
    char = prepared.characterization
    rows = []
    for j in range(char.job_count):
        block = char.job_slice(j)
        rows.append([
            prepared.scheduled.mix.jobs[j].name.split("-", 2)[-1],
            f"{float(np.mean(char.monitor_power_w[block])):.0f}",
            f"{float(np.mean(char.needed_power_w[block])):.0f}",
            f"{float(np.mean(char.waste_w()[block])):.0f}",
        ])
    print(render_table(
        ["job", "observed W/node", "needed W/node", "waste W/node"], rows,
        title=f"Characterization of {mix} ({char.host_count} hosts)",
    ))
    if save:
        from repro.io.serialize import save_characterization

        path = save_characterization(char, save)
        print(f"\nSaved characterization to {path}")
    if telemetry_out:
        _dump_telemetry(telemetry_out, kind="characterize", config=grid.config,
                        inputs={"mix": mix})
    return 0


def _cmd_budgets(grid: ExperimentGrid, mix: Optional[str]) -> int:
    from repro.experiments.tables import table3_budgets

    rows = [
        [r["mix"], r["min_kw"], r["ideal_kw"], r["max_kw"], r["total_tdp_kw"]]
        for r in table3_budgets(grid)
        if mix is None or r["mix"] == mix
    ]
    print(render_table(["mix", "min kW", "ideal kW", "max kW", "TDP kW"], rows,
                       title="Power budgets (Table III)"))
    return 0


def _cmd_grid(grid: ExperimentGrid, mixes: Optional[List[str]],
              csv: Optional[str], check: bool,
              telemetry_out: Optional[str] = None,
              workers: Optional[int] = None) -> int:
    from repro.experiments.metrics import savings_grid
    from repro.experiments.takeaways import check_takeaways

    if telemetry_out:
        # Cover the runtime layer too: the grid itself characterizes
        # analytically and never runs the per-job controller.
        _run_runtime_probe(grid)
    results = grid.run_all(mixes=mixes, workers=workers)
    savings = savings_grid(results)
    rows = []
    for (mix, level, policy) in sorted(savings):
        s = savings[(mix, level, policy)]
        rows.append([
            mix, level, policy,
            f"{100 * s.time_savings.mean:+.1f}%",
            f"{100 * s.energy_savings.mean:+.1f}%",
        ])
    print(render_table(
        ["mix", "budget", "policy", "time savings", "energy savings"], rows,
        title="Savings vs StaticCaps (Fig. 8)",
    ))
    if csv:
        from repro.io.serialize import save_grid_results

        path = save_grid_results(results, csv)
        print(f"\nWrote cell summaries to {path}")
    if check:
        if mixes is not None and set(mixes) != set(MIX_NAMES):
            print("\n(takeaway checks need the full mix set; skipping)")
        else:
            report = check_takeaways(results)
            print()
            for name, ok in report.checks.items():
                print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
            if not report.all_hold():
                return 1
    if telemetry_out:
        _dump_telemetry(telemetry_out, kind="grid", config=grid.config,
                        inputs={"mixes": list(mixes or MIX_NAMES),
                                "workers": workers})
    return 0


def _cmd_site(grid: ExperimentGrid, policy: str, jobs: int, replays: int,
              workers: Optional[int],
              telemetry_out: Optional[str] = None) -> int:
    """Replay one arrival stream under independent noise seeds."""
    from repro.manager.queue import JobRequest
    from repro.manager.site_simulation import Arrival
    from repro.parallel.tasks import site_replays
    from repro.workload.kernel import KernelConfig

    nodes = max(2, grid.config.nodes_per_job)
    cluster = grid.partition.subset(np.arange(3 * nodes))
    arrivals = [
        Arrival(
            time_s=float(i),
            request=JobRequest(
                f"site-job-{i}",
                KernelConfig(
                    intensity=float(2 ** (1 + i % 4)),
                    waiting_fraction=0.25 * (i % 3),
                    imbalance=1 + i % 3,
                ),
                node_count=nodes,
                iterations=grid.config.iterations,
            ),
        )
        for i in range(jobs)
    ]
    budget_w = 3 * nodes * 0.85 * grid.model.power_model.tdp_w
    results = site_replays(
        arrivals, cluster, policy, budget_w,
        replays=replays, workers=workers,
    )
    results = [r for r in results if r is not None]
    rows = [
        [i, len(r.batches), f"{r.makespan_s:.1f}",
         f"{r.mean_turnaround_s():.1f}", f"{r.peak_power_w() / 1000:.2f}"]
        for i, r in enumerate(results)
    ]
    print(render_table(
        ["replay", "batches", "makespan s", "turnaround s", "peak kW"], rows,
        title=f"Site simulation: {policy}, {jobs} jobs, "
              f"{budget_w / 1000:.1f} kW budget",
    ))
    makespans = np.array([r.makespan_s for r in results])
    turnarounds = np.array([r.mean_turnaround_s() for r in results])
    print(f"\nmakespan   {makespans.mean():.1f} +/- {makespans.std():.1f} s")
    print(f"turnaround {turnarounds.mean():.1f} +/- {turnarounds.std():.1f} s")
    if telemetry_out:
        _dump_telemetry(telemetry_out, kind="site", config=grid.config,
                        inputs={"policy": policy, "jobs": jobs,
                                "replays": replays,
                                "budget_w": float(budget_w),
                                "workers": workers})
    return 0


def _build_stream_engine(grid: ExperimentGrid, policy: str,
                         max_pending: int, seed: int,
                         admission_interval_s: Optional[float] = None,
                         per_job_batches: bool = False):
    """A rolling engine sized like the ``site`` command's cluster."""
    from repro.core.registry import create_policy
    from repro.stream import SiteStreamEngine

    nodes = max(2, grid.config.nodes_per_job)
    cluster = grid.partition.subset(np.arange(4 * nodes))
    budget_w = 4 * nodes * 0.85 * grid.model.power_model.tdp_w
    engine = SiteStreamEngine(
        cluster, create_policy(policy), budget_w,
        max_pending=max_pending,
        record_jobs=False, record_batches=False,
        run_seed=seed,
        admission_interval_s=admission_interval_s,
        per_job_batches=per_job_batches,
    )
    return engine, nodes, budget_w


def _cmd_stream(grid: ExperimentGrid, args: argparse.Namespace) -> int:
    """Sustained-load run, daemon service, or daemon smoke test."""
    if args.admission_interval is not None and args.admission_interval <= 0:
        print("error: --admission-interval must be positive",
              file=sys.stderr)
        return 2
    if args.profile:
        if not args.telemetry_out:
            print("error: --profile requires --telemetry-out",
                  file=sys.stderr)
            return 2
        if args.serve or args.daemon_smoke:
            print("error: --profile applies to batch runs, not --serve / "
                  "--daemon-smoke", file=sys.stderr)
            return 2
    engine, nodes, budget_w = _build_stream_engine(
        grid, args.policy, args.max_pending, args.seed,
        admission_interval_s=args.admission_interval,
        per_job_batches=args.per_job_batches,
    )
    if args.serve or args.daemon_smoke:
        import asyncio

        from repro.stream.daemon import StreamDaemon

        async def _serve() -> int:
            daemon = StreamDaemon(engine, port=args.port)
            host, port = await daemon.start()
            print(f"stream daemon listening on {host}:{port} "
                  f"({args.policy}, {budget_w / 1000:.1f} kW)")
            if args.daemon_smoke:
                try:
                    await _drive_daemon_smoke(host, port, nodes)
                finally:
                    await daemon.stop()
                return 0
            await daemon.serve_until_shutdown()
            return 0

        try:
            code = asyncio.run(_serve())
        except AssertionError as exc:
            print(f"daemon smoke FAILED: {exc}", file=sys.stderr)
            return 1
        if args.daemon_smoke:
            print("daemon smoke OK")
        return code

    from repro.stream import poisson_stream, synthetic_job_factory

    engine.tick_interval_s = max(args.duration / 10.0, 1.0)
    factory = synthetic_job_factory(
        node_count=nodes,
        iterations=grid.config.iterations,
        power_hint_w=0.8 * grid.model.power_model.tdp_w,
    )
    engine.attach_source(
        poisson_stream(args.rate, args.duration, factory, seed=args.seed)
    )
    if args.budget_drop is not None:
        if not 0.0 < args.budget_drop <= 1.0:
            print("error: --budget-drop must be in (0, 1]", file=sys.stderr)
            return 2
        engine.set_budget(args.budget_drop * budget_w,
                          time_s=args.duration / 2.0)
    with _maybe_profile(args.profile) as profiler:
        stats = engine.run()
    rows = [[k, f"{v:.3f}" if isinstance(v, float) else str(v)]
            for k, v in stats.snapshot().items()]
    print(render_table(
        ["statistic", "value"], rows,
        title=f"Streaming site engine: {args.policy}, "
              f"{args.rate:g} jobs/s x {args.duration:g} s, "
              f"{budget_w / 1000:.1f} kW",
    ))
    per_day = stats.arrivals * 86400.0 / max(stats.clock_s, 1e-9)
    print(f"\nsustained arrival rate ≈ {per_day:,.0f} jobs/day "
          f"(peak tracked jobs {stats.peak_tracked_jobs})")
    if args.telemetry_out:
        _dump_telemetry(args.telemetry_out, kind="stream",
                        config=grid.config,
                        inputs={"policy": args.policy,
                                "rate_per_s": args.rate,
                                "duration_s": args.duration,
                                "max_pending": args.max_pending,
                                "budget_w": float(budget_w)},
                        seed=args.seed)
        _maybe_write_profile(args.telemetry_out, profiler)
    queue = engine.queue
    ended = queue.completed + queue.failed + stats.rejected
    if stats.arrivals != ended or len(queue):
        print(f"error: jobs not conserved: {stats.arrivals} arrivals, "
              f"{ended} completed/failed/rejected, {len(queue)} still "
              f"pending or admitted", file=sys.stderr)
        return 1
    return 0


async def _drive_daemon_smoke(host: str, port: int, nodes: int) -> None:
    """A synthetic client burst against a live daemon (CI smoke).

    Subscribes, submits a burst, and checks every reply frame validates
    against the wire schema; raises ``AssertionError`` on any failure.
    """
    import asyncio

    from repro.stream import messages as msg
    from repro.stream import synthetic_job_factory

    reader, writer = await asyncio.open_connection(host, port)
    events: List[dict] = []

    async def rpc(message: dict) -> dict:
        writer.write(msg.encode_message(message))
        await writer.drain()
        while True:
            frame = msg.decode_message(await reader.readline())
            problems = msg.validate_downstream(frame)
            assert not problems, f"invalid downstream frame: {problems}"
            if frame["type"] == "event":
                events.append(frame)
                continue
            return frame

    reply = await rpc(msg.subscribe_message(kinds=["batch_complete"]))
    assert reply["type"] == "ack", reply
    factory = synthetic_job_factory(node_count=nodes, prefix="smoke")
    for i in range(24):
        reply = await rpc(msg.submit_message(factory(i)))
        assert reply["type"] == "ack", reply
    reply = await rpc(msg.stats_message())
    assert reply["type"] == "stats", reply
    stats = reply["stats"]
    assert stats["arrivals"] == 24, stats
    assert stats["jobs_completed"] == 24, stats
    assert events, "no batch_complete events reached the subscriber"
    reply = await rpc(msg.set_budget_message(1000.0))
    assert reply["type"] == "ack", reply
    reply = await rpc({"schema": msg.STREAM_SCHEMA, "op": "nonsense"})
    assert reply["type"] == "error", reply
    print(f"  {stats['arrivals']} submitted, {stats['jobs_completed']} "
          f"completed in {stats['batches']} batches, "
          f"{len(events)} pub/sub frames")
    writer.close()
    await writer.wait_closed()


def _cmd_faults(scenarios: Optional[List[str]], policies: Optional[List[str]],
                check: bool, list_only: bool,
                controller_study: bool = False,
                telemetry_out: Optional[str] = None) -> int:
    """Replay named fault scenarios and score policy resilience."""
    from repro.experiments.resilience import run_resilience_suite
    from repro.faults.scenarios import STANDARD_SCENARIOS

    if list_only:
        rows = [[s.name, s.description] for s in STANDARD_SCENARIOS.values()]
        print(render_table(["scenario", "description"], rows,
                           title="Standard fault scenarios"))
        return 0
    if controller_study:
        from repro.experiments.resilience import controller_fault_study

        smoke = os.environ.get("REPRO_SMOKE") == "1"
        study = controller_fault_study(
            scenarios=scenarios,
            nodes=3 if smoke else 4,
            max_epochs=60 if smoke else 150,
        )
        print(study.render())
        if telemetry_out:
            ran = [o.scenario for o in study.outcomes]
            _dump_telemetry(telemetry_out, kind="faults",
                            inputs={"scenarios": ran,
                                    "controller_study": True})
        return 0
    if os.environ.get("REPRO_SMOKE") == "1":
        sizing = dict(jobs=4, nodes_per_job=3, iterations=8)
    else:
        sizing = dict(jobs=6, nodes_per_job=4, iterations=12)
    report = run_resilience_suite(
        scenarios=scenarios, policies=policies, **sizing
    )
    print(report.render())
    losses = report.qos_loss_by_policy()
    print("\nmean QoS loss over feasible scenarios:")
    for name, loss in losses.items():
        print(f"  {name:<16} {loss:+.1f}%")
    code = 0
    if check:
        print()
        checks = report.check()
        for name, ok in checks.items():
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        code = 0 if report.all_hold() else 1
    if telemetry_out:
        # Record what actually ran: unset filters mean the full suite,
        # not an empty one.
        ran_scenarios = list(dict.fromkeys(o.scenario
                                           for o in report.outcomes))
        ran_policies = list(dict.fromkeys(o.policy
                                          for o in report.outcomes))
        _dump_telemetry(telemetry_out, kind="faults",
                        inputs={"scenarios": ran_scenarios,
                                "policies": ran_policies,
                                **sizing})
    return code


def _cmd_facility() -> int:
    from repro.workload.facility import generate_facility_trace

    stats = generate_facility_trace().statistics()
    rows = [[k, f"{v:.3f}"] for k, v in stats.items()]
    print(render_table(["statistic", "value"], rows,
                       title="Facility trace statistics (Fig. 1)"))
    return 0


def _cmd_facility_sim(args: argparse.Namespace) -> int:
    """The hierarchical facility campaign (ROADMAP item 2)."""
    import time

    from repro.experiments.facility_scale import (
        FacilityCampaignConfig, campaign_rows, run_facility_campaign,
    )

    if args.profile and not args.telemetry_out:
        print("error: --profile requires --telemetry-out", file=sys.stderr)
        return 2
    config = FacilityCampaignConfig(
        clusters=args.clusters,
        nodes_per_cluster=args.nodes_per_cluster,
        jobs_per_cluster=args.jobs,
        window_s=args.window,
        horizon_s=args.horizon,
        broker_policy=args.broker_policy,
        policy=args.policy,
        budget_fraction=args.budget_fraction,
        feeder_dips=not args.no_feeder_dips,
        seed=args.seed,
    )
    start = time.perf_counter()
    with _maybe_profile(args.profile) as profiler:
        result = run_facility_campaign(config, workers=args.workers)
    wall_s = time.perf_counter() - start

    summary = result.summary()
    budget_src = "constant" if args.budget_fraction is not None \
        else "Fig. 1 trace"
    print(render_table(
        ["statistic", "value"],
        [[k, f"{v:,.1f}"] for k, v in summary.items()]
        + [["wall_s", f"{wall_s:.2f}"],
           ["clusters_per_s", f"{len(result.clusters) / wall_s:,.1f}"]],
        title=f"Facility campaign ({result.broker_policy} broker, "
              f"{budget_src} budget)",
    ))
    rows = campaign_rows(result)[:args.rows]
    print(render_table(
        ["cluster", "nodes", "alloc span (W)", "done", "turnaround (s)",
         "rebal", "char hit%"],
        [[str(r["cluster"]), f"{r['nodes']:,.0f}",
          f"{r['min_allocation_w']:,.0f}-{r['max_allocation_w']:,.0f}",
          f"{r['jobs_completed']:.0f}", f"{r['mean_turnaround_s']:.2f}",
          f"{r['rebalances']:.0f}", f"{100.0 * r['char_hit_ratio']:.0f}"]
         for r in rows],
        title=f"First {len(rows)} clusters",
    ))
    if args.telemetry_out:
        _dump_telemetry(
            args.telemetry_out, kind="facility-sim", config=config,
            inputs={"clusters": len(result.clusters),
                    "nodes": result.total_nodes,
                    "broker_policy": result.broker_policy,
                    "epochs": len(result.epoch_s)},
            seed=config.seed,
        )
        _maybe_write_profile(args.telemetry_out, profiler)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A command that writes a telemetry bundle (``--telemetry-out``, or
    ``telemetry -o``) runs inside :func:`repro.telemetry.recording`, so
    its event log and span tree hold the run's history; any other
    command keeps only the exact counts and totals.
    """
    args = build_parser().parse_args(argv)
    out = getattr(args, "telemetry_out", None) or getattr(args, "out", None)
    if not out:
        return _dispatch(args)
    from repro.telemetry import recording

    with recording():
        return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command."""
    if args.command == "facility":
        return _cmd_facility()
    if args.command == "facility-sim":
        return _cmd_facility_sim(args)
    if args.command == "faults":
        return _cmd_faults(args.scenarios, args.policies, args.check,
                           args.list_only, args.controller_study,
                           args.telemetry_out)
    from repro.experiments.grid import ExperimentGrid

    grid = ExperimentGrid(_make_config(args))
    if args.command == "survey":
        return _cmd_survey(grid)
    if args.command == "characterize":
        return _cmd_characterize(grid, args.mix, args.save, args.telemetry_out)
    if args.command == "budgets":
        return _cmd_budgets(grid, args.mix)
    if args.command == "grid":
        return _cmd_grid(grid, args.mixes, args.csv, args.check,
                         args.telemetry_out, workers=args.workers)
    if args.command == "site":
        return _cmd_site(grid, args.policy, args.jobs, args.replays,
                         args.workers, args.telemetry_out)
    if args.command == "stream":
        return _cmd_stream(grid, args)
    if args.command == "telemetry":
        return _cmd_telemetry(grid, args.out)
    if args.command == "report":
        from repro.experiments.report import build_report, write_report

        if args.output:
            path = write_report(grid, args.output)
            print(f"Wrote report to {path}")
        else:
            print(build_report(grid))
        return 0
    if args.command == "figures":
        from repro.experiments.svg_figures import render_all_figures

        written = render_all_figures(grid, args.output)
        for name in sorted(written):
            print(f"{name}: {written[name]}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
