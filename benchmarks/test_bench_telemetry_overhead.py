"""Bench: telemetry instrumentation overhead on the simulator hot path.

The telemetry subsystem instruments ``simulate_mix`` — the function every
grid cell spends its time in — with a span (which carries its wall time)
and a run or cache-hit counter.  This benchmark
times the paper-scale workload (900 hosts, 100 iterations) with
telemetry enabled (the default) and disabled, and pins the relative
overhead below 5 % — the budget that justifies leaving instrumentation
on everywhere.

Measurement design: the same paired ON/OFF runs as the tracing-overhead
bench (the ``paired_deltas`` fixture in ``benchmarks/conftest.py``),
here switching the whole pipeline with ``telemetry.set_enabled``.  A
best-of-N comparison of independent ON and OFF runs swings by tens of
percent between runs on a loaded VM; the median of paired deltas over
the median OFF run does not.  CI's ``bench-smoke`` job runs this file
without ``REPRO_SMOKE``, in one step with the tracing-overhead bench.

Writes ``benchmarks/output/telemetry_overhead.txt``.
"""

import numpy as np

from repro import telemetry
from repro.sim.execution import SimulationOptions, simulate_mix

#: Accepted instrumentation overhead on the hot path.
OVERHEAD_BUDGET = 0.05

PAIRS = 200


def test_telemetry_overhead_under_budget(paper_grid, emit, paired_deltas):
    prepared = paper_grid.prepare_mix("RandomLarge")
    mix = prepared.scheduled.mix
    caps = np.full(mix.total_nodes, 200.0)
    eff = prepared.scheduled.efficiencies
    options = SimulationOptions(seed=1)

    def run():
        simulate_mix(mix, caps, eff, paper_grid.model, options)

    telemetry.reset()
    run()  # warm-up: page in arrays and code paths
    delta_s, off_s = paired_deltas(run, PAIRS, telemetry.set_enabled)
    telemetry.reset()

    overhead = delta_s / off_s
    text = "\n".join([
        "Telemetry overhead on simulate_mix (900 hosts x 100 iterations)",
        f"median of {PAIRS} paired (on - off) deltas: "
        f"{delta_s * 1e6:+8.1f} us",
        f"median telemetry-off run:                  "
        f"{off_s * 1e3:8.3f} ms",
        f"relative overhead: {overhead:+.2%} (budget {OVERHEAD_BUDGET:.0%})",
    ])
    emit("telemetry_overhead", text)
    assert overhead < OVERHEAD_BUDGET, (
        f"telemetry adds {overhead:+.2%} to simulate_mix "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
