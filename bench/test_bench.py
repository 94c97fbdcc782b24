"""Smoke test of the benchmark harness: every workload once at ~1/50 size.

Runs the same code path as ``bench/run.py`` (worker processes, warm-up,
timed and traced runs, output checks), shrunk through the ``scale``
argument of the workloads' ``build``.  Run with
``PYTHONPATH=src python -m pytest bench -q``.
"""

import re

import run
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_every_metric_present_and_nothing_fails():
    spec = run.benchmark_spec()
    report = run.benchmark(list(WORKLOADS), seconds=0, trace=True,
                           scale=0.02)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload, summary in report["workloads"].items():
        assert summary["failures"] == [], workload
        assert summary["metrics"]["failed_share"] == 0.0, workload
        missing = [n for n in names if n not in summary["metrics"]]
        assert missing == [], workload
    line = run.result_line(report, spec)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(WORKLOADS)
    assert sorted(line["metrics"]) == sorted(
        f"{w}.{n}" for w in WORKLOADS for n in names)
    one = run.result_line(dict(report, workloads={
        "site": report["workloads"]["site"]}), spec)
    assert sorted(one["metrics"]) == sorted(names)


def test_dead_worker_is_a_failed_run():
    worker = run.Worker("site", 0, 0.02)
    worker.proc.kill()
    worker.proc.wait()
    reply, rss = worker.call("run"), worker.call("rss")
    worker.close()
    summary = run.summarise([reply], None, [0.1], rss, None)
    assert "error" in reply
    assert not summary["correct"] and summary["failed"] == 1
    assert summary["metrics"] == {"failed_share": 1.0}


def test_benchmark_json_lists_valid_metrics():
    spec = run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
