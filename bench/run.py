"""The repository benchmark: four loaded workloads, checked outputs,
end-to-end metrics and an outside-in per-layer time split.

Run from the repository root (no install step; the workers put ``src``
on their path)::

    python bench/run.py                        # all four workloads
    python bench/run.py --workload stream --seed 3 --seconds 15 --trace 0

Each workload runs in its own worker process (``bench/worker.py``):
one untimed warm-up at reduced size, then rounds of timed runs,
round-robin across the workers — so slow drift of the host hits every
workload alike — each round ending with fresh-interpreter import
samples for ``setup_s``.  Rounds fill ``--seconds`` per workload
(default: ``run_seconds`` of ``BENCHMARK.json``) without overrunning
it.  Every timing is also taken in reference seconds, scaled by the
host speed probed during it (``bench/clock.py``); the gated timings are
those.  With ``--trace 1`` one more run per workload goes under the
layer timer.  The metric names, units and bounds are the ones listed in
``BENCHMARK.json``.

Output: a table per workload, ``BENCH_e2e.json`` in the repository
root, and as the last line one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding every ``BENCHMARK.json`` metric measured
(the per-layer ones only with ``--trace 1``), keyed by name for one
workload and ``<workload>.<metric>`` for several.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from layers import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
#: Single-threaded numerics and a fixed hash seed in every worker: the
#: OpenBLAS pool otherwise adds threads that compete with the
#: interpreter on a small host, and set order must not vary by run.
WORKER_ENV = {"PYTHONHASHSEED": "0", "REPRO_WORKERS": "1",
              "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DEFAULT_SEED = 0
#: Fresh-interpreter import samples per workload and round for
#: ``setup_s``; spread over the rounds, they see the same host phases
#: as the timed runs.
IMPORT_SAMPLES = 2
#: Reported but not gated in ``BENCHMARK.json``: ``failed_share`` is 0
#: on a healthy run (the result line's ``failed`` carries it), mean
#: turnaround of a loaded queue moves too much from seed to seed, and
#: raw host timings move with the host's speed (``bench/clock.py``).
UNGATED_UNITS = {"failed_share": "fraction", "mean_turnaround_s": "sim_s",
                 "wall_s": "s", "jobs_per_s": "jobs/s"}


def _env() -> Dict[str, str]:
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Worker:
    """A ``bench/worker.py`` process for one workload."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "worker.py"), name,
             str(seed), repr(scale)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_env(), cwd=ROOT,
        )

    def call(self, command: str) -> Dict[str, Any]:
        """The worker's reply; once the worker has died, an error."""
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line:
            return {"error": f"{self.name} worker exited with code "
                             f"{self.proc.wait()}"}
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def import_seconds(modules: Sequence[str]) -> List[float]:
    """Import time of ``modules`` in a fresh interpreter, in reference
    seconds (NumPy, which the clock needs, is imported before it starts);
    none if it fails (the workload's runs then fail and say why)."""
    code = ("import sys; sys.path.insert(0, 'bench'); "
            "from clock import RefClock\n"
            "with RefClock() as clock:\n"
            "    import " + ", ".join(modules) + "\n"
            "print(clock.ref_s)")
    done = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return [float(done.stdout.split()[-1])] if done.returncode == 0 else []


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    values = sorted(values)
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def reference_digests() -> Dict[str, str]:
    return json.loads((ROOT / "bench" / "digests.json").read_text())


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_metrics(traced: Dict[str, Any], ref_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run; ``ref_s`` is the median
    untraced run in reference seconds."""
    layers = traced["layers"]
    traced_wall = traced["wall_s"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.calls"] = layers[layer]["calls"]
        out[f"layer.{layer}.share"] = layers[layer]["self_s"] / traced_wall
    attributed = sum(v["self_s"] for v in layers.values())
    out["layer.unattributed.share"] = 1.0 - attributed / traced_wall
    out["trace.overhead_share"] = traced["ref_s"] / ref_s - 1.0
    out["trace.wall_s"] = traced_wall
    sim = layers["sim"]
    out["sim.rows_per_call"] = sim["rows"] / sim["calls"] if sim["calls"] \
        else 0.0
    plans = layers["manager.plan"]["calls"]
    out["manager.plan.char_hit_ratio"] = (
        1.0 - layers["characterization"]["calls"] / plans if plans else 0.0)
    return out


def summarise(runs: List[Dict[str, Any]], traced: Optional[Dict[str, Any]],
              imports: List[float], rss: Dict[str, Any],
              expected_digest: Optional[str]) -> Dict[str, Any]:
    """Metrics, checks and bookkeeping of one workload."""
    every = runs + ([traced] if traced is not None else [])
    ok = [r for r in every if "error" not in r]
    timed = [r for r in runs if "error" not in r]
    if expected_digest is None and ok:
        expected_digest = Counter(r["digest"] for r in ok).most_common(1)[0][0]
    problems: List[str] = []
    failed = 0
    for i, r in enumerate(every):
        label = "traced run" if r is traced else f"run {i + 1}"
        reasons = ([r["error"].strip().splitlines()[-1]] if "error" in r
                   else list(r["failures"]))
        if "error" not in r and r["digest"] != expected_digest:
            reasons.append(f"digest {r['digest']} != {expected_digest}")
        if reasons:
            failed += 1
            problems += [f"{label}: {reason}" for reason in reasons]
    if not imports:
        problems.append("every fresh-interpreter import failed")
    summary: Dict[str, Any] = {
        "correct": not problems, "attempted": len(every), "failed": failed,
        "failures": problems, "digest": expected_digest,
        "metrics": {"failed_share": failed / len(every)},
    }
    if not timed or not imports:
        return summary
    refs = [r["ref_s"] for r in timed]
    rates = [r["jobs"] / r["ref_s"] for r in timed]
    walls = [r["wall_s"] for r in timed]
    host_rates = [r["jobs"] / r["wall_s"] for r in timed]
    builds = [r["build_ref_s"] for r in timed]
    first = timed[0]
    metrics = summary["metrics"]
    metrics.update({
        "ref_wall_s": statistics.median(refs),
        "ref_jobs_per_s": statistics.median(rates),
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "wall_s": statistics.median(walls),
        "jobs_per_s": statistics.median(host_rates),
        "power_utilization": first["energy_j"] / first["budget_ws"],
        "energy_mj": first["energy_j"] / 1e6,
        "mean_turnaround_s": first["turnaround_s"],
    })
    if "error" not in rss:
        metrics["peak_rss_mb"] = rss["peak_rss_mb"]
    summary.update({
        "kwargs": first["kwargs"],
        "runs": [{k: r[k] for k in ("wall_s", "ref_s", "speed")}
                 for r in timed],
        "spread": {"ref_wall_s": quartiles(refs),
                   "ref_jobs_per_s": quartiles(rates),
                   "wall_s": quartiles(walls),
                   "jobs_per_s": quartiles(host_rates),
                   "speed": quartiles([r["speed"] for r in timed]),
                   "import_s": quartiles(imports),
                   "build_s": quartiles(builds)},
    })
    if traced is not None and "error" not in traced:
        metrics.update(layer_metrics(traced, metrics["ref_wall_s"]))
        summary["self_s"] = {layer: traced["layers"][layer]["self_s"]
                             for layer in LAYERS}
        summary["missing"] = traced["missing"]
    return summary


def benchmark(names: Sequence[str], seconds: float, seed: int = DEFAULT_SEED,
              trace: bool = True, scale: float = 1.0) -> Dict[str, Any]:
    """Run ``names`` for up to ``seconds`` each; the per-workload summaries.

    A round (one timed run per workload and its import samples) starts
    only if a round of median length still ends within ``seconds`` ×
    the number of workloads, so the measured time never overruns by a
    whole round; at least one round runs, so ``seconds=0`` gives one
    timed run per workload.  ``scale`` shrinks every workload (the smoke
    test's knob; the committed digests hold at scale 1 and the default
    seed only).
    """
    digests = reference_digests() if scale == 1.0 and seed == DEFAULT_SEED \
        else {}
    workers: Dict[str, Worker] = {}
    try:
        for name in names:
            workers[name] = Worker(name, seed, scale)
        for worker in workers.values():
            reply = worker.call("warmup")
            if "error" in reply:
                print(f"{worker.name} warm-up failed:\n{reply['error']}",
                      file=sys.stderr)
        runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
        imports: Dict[str, List[float]] = {name: [] for name in names}
        rounds: List[float] = []
        budget = seconds * len(names)
        start = time.perf_counter()
        while not rounds or (time.perf_counter() - start
                             + statistics.median(rounds) <= budget):
            round_start = time.perf_counter()
            for name, worker in workers.items():
                runs[name].append(worker.call("run"))
            for name in names:
                for _ in range(IMPORT_SAMPLES):
                    imports[name] += import_seconds(WORKLOADS[name].modules)
            rounds.append(time.perf_counter() - round_start)
        rss = {name: w.call("rss") for name, w in workers.items()}
        traces = {name: w.call("trace") for name, w in workers.items()} \
            if trace else {}
    finally:
        for worker in workers.values():
            worker.close()
    return {
        "seed": seed, "scale": scale, "rounds": len(rounds),
        "measured_s": sum(rounds),
        "workloads": {
            name: summarise(runs[name], traces.get(name), imports[name],
                            rss[name], digests.get(name))
            for name in names
        },
    }


def _metric_list(spec: Dict[str, Any], key: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def render(report: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """The human-readable tables."""
    units = dict(_metric_list(spec, "end_to_end"),
                 **_metric_list(spec, "per_layer"), **UNGATED_UNITS)
    lines = [f"seed {report['seed']}, {report['rounds']} rounds in "
             f"{report['measured_s']:.1f} s"]
    for name, w in report["workloads"].items():
        m = w["metrics"]
        lines += ["", f"== {name}: {w['attempted'] - w['failed']}/"
                  f"{w['attempted']} runs passed, digest {w['digest']}, "
                  f"kwargs {w.get('kwargs')}"]
        lines += [f"   FAILED {p}" for p in w["failures"]]
        if "spread" not in w:
            continue
        for key in ("ref_wall_s", "ref_jobs_per_s", "wall_s", "jobs_per_s",
                    "speed"):
            q = w["spread"][key]
            lines.append(f"  {key:<22} {q['median']:>14.6g} "
                         f"{units.get(key, 'x'):<8} [q1 {q['q1']:.6g}, "
                         f"q3 {q['q3']:.6g}] n={q['n']}")
        imp, build = w["spread"]["import_s"], w["spread"]["build_s"]
        lines.append(f"  {'setup_s':<22} {m['setup_s']:>14.6g} {'s':<8}"
                     f" import {imp['median']:.4g} (n={imp['n']}) + "
                     f"inputs {build['median']:.4g} (n={build['n']})")
        for key in ("peak_rss_mb", "failed_share", "power_utilization",
                    "energy_mj", "mean_turnaround_s"):
            if key in m:
                lines.append(f"  {key:<22} {m[key]:>14.10g} {units[key]}")
        if "self_s" in w:
            lines.append(f"  {'layer':<22} {'calls':>10} {'self_s':>10} "
                         f"{'share':>7}")
            for layer in LAYERS:
                lines.append(
                    f"  {layer:<22} {m[f'layer.{layer}.calls']:>10} "
                    f"{w['self_s'][layer]:>10.4f} "
                    f"{m[f'layer.{layer}.share']:>7.2%}")
            for key in ("layer.unattributed.share", "trace.overhead_share",
                        "trace.wall_s", "sim.rows_per_call",
                        "manager.plan.char_hit_ratio"):
                lines.append(f"  {key:<28} {m[key]:>10.4g} {units[key]}")
            if w["missing"]:
                lines.append(f"  targets not found: {', '.join(w['missing'])}")
    return lines


def result_line(report: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result object that ends the output: every
    ``BENCHMARK.json`` metric measured, prefixed by the workload's name
    when there are several."""
    workloads = report["workloads"]
    units = dict(_metric_list(spec, "end_to_end"),
                 **_metric_list(spec, "per_layer"))
    metrics = {
        (k if len(workloads) == 1 else f"{name}.{k}"): {"value": v,
                                                        "unit": units[k]}
        for name, w in workloads.items()
        for k, v in w["metrics"].items() if k in units
    }
    return {
        "correct": all(w["correct"] for w in workloads.values()),
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": sum(w["failed"] for w in workloads.values()),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 = add one traced run for per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    report = benchmark(names, seconds, args.seed, bool(args.trace))
    line = result_line(report, spec)
    (ROOT / "BENCH_e2e.json").write_text(
        json.dumps(dict(report, result=line), indent=2) + "\n")
    print("\n".join(render(report, spec)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
