"""Unit tests for the parent-versus-change benchmark gate.

``benchmarks/bench_gate.py`` reads ``bench/run.py`` result lines of both
sides and gates on the end-to-end bounds of ``BENCHMARK.json``; these
cases feed it synthetic lines around those bounds.
"""

import json

import pytest

from benchmarks.bench_gate import SPEC, main

_SPEC = json.loads(SPEC.read_text())
_WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
_METRICS = [m["name"] for m in _SPEC["end_to_end"]]


def _line(scale=None, drop=None, correct=True, failed=0):
    """One result line with every metric at 10.0, except the facility
    workload's ``scale`` metric (multiplied) and ``drop`` (absent)."""
    name, factor = scale or (None, 1.0)
    metrics = {
        f"{w}.{m}": {"value": 10.0 * (factor if (w, m) == ("facility", name)
                                      else 1.0), "unit": "x"}
        for w in _WORKLOADS for m in _METRICS
        if (w, m) != ("facility", drop)
    }
    return json.dumps({"correct": correct, "attempted": 6, "failed": failed,
                       "metrics": metrics})


@pytest.mark.parametrize("change, expected", [
    pytest.param(_line(), 0, id="identical-passes"),
    pytest.param(_line(scale=("ref_wall_s", 1.25)), 1, id="wall-plus25-fails"),
    pytest.param(_line(scale=("ref_wall_s", 1.15)), 0, id="wall-plus15-passes"),
    pytest.param(_line(scale=("ref_jobs_per_s", 0.75)), 1,
                 id="throughput-minus25-fails"),
    pytest.param(_line(scale=("peak_rss_mb", 1.16)), 1, id="rss-plus16-fails"),
    pytest.param(_line(scale=("peak_rss_mb", 1.14)), 0, id="rss-plus14-passes"),
    pytest.param(_line(scale=("setup_s", 1.24)), 0, id="setup-plus24-passes"),
    pytest.param(_line(correct=False), 1, id="incorrect-fails"),
    pytest.param(_line(failed=1), 1, id="failed-run-fails"),
    pytest.param(_line(drop="energy_mj"), 1, id="missing-metric-fails"),
    pytest.param("not a result line", 2, id="garbage-exits-2"),
])
def test_gate(tmp_path, change, expected):
    parent_file, change_file = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent_file.write_text("\n".join([_line()] * 5) + "\n")
    change_file.write_text("\n".join([change] * 5) + "\n")
    assert main([str(parent_file), str(change_file)]) == expected
