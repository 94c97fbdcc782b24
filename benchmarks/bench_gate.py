"""Judge a change against its parent with ``bench/run.py`` result lines.

    python3 benchmarks/bench_gate.py PARENT_LINES CHANGE_LINES

Each file holds the last stdout line of several ``bench/run.py``
invocations over all workloads, one JSON result object a line, with
metrics keyed ``<workload>.<metric>``.  For every workload and
every end-to-end metric of ``BENCHMARK.json`` the gate prints the
parent and change medians, the relative delta, the metric's bound and a
verdict.  Exit status 1 when a change median is worse than the parent
median by more than the bound, when a metric is missing from a
change-side line, or when a change-side line has ``correct`` other than
true or ``failed`` other than 0; parent-side failures are only printed.
Exit status 2 when a line does not parse.
"""

import json
import math
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_results(path):
    """``(passed, {metric: value})`` for every non-blank line of ``path``."""
    results = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            metrics = {k: float(m["value"])
                       for k, m in result["metrics"].items()}
            passed = result.get("correct") is True and result.get("failed") == 0
            results.append((passed, metrics))
    return results


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        parent, change = [read_results(path) for path in argv]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"bench_gate: unreadable result line: {exc!r}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    for side, results in (("parent", parent), ("change", change)):
        bad = sum(not passed for passed, _ in results)
        print(f"{side}: {len(results)} runs, {bad} with failed checks")
    failed = not change or not all(passed for passed, _ in change)
    print(f"{'metric':<28} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            key = f"{workload}.{m['name']}"
            old = [v[key] for _, v in parent if key in v]
            new = [v[key] for _, v in change if key in v]
            if not new or len(new) < len(change):
                verdict, row = "MISSING", ""
            elif not old:
                verdict = "no parent"
                row = f"{'-':>12} {statistics.median(new):>12.6g}"
            else:
                p, c = statistics.median(old), statistics.median(new)
                if p:
                    delta = (c - p) / p
                else:
                    delta = 0.0 if c == p else math.copysign(math.inf, c - p)
                sign = -1 if m["better"] == "higher" else 1
                verdict = "WORSE" if sign * delta > m["bound"] else "ok"
                row = f"{p:>12.6g} {c:>12.6g} {delta:>+8.1%}"
            failed |= verdict in ("MISSING", "WORSE")
            print(f"{key:<28} {row:<34} {m['bound']:>6.2f}  {verdict}")
    print("bench gate:", "FAIL" if failed else "pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
