"""Bench: telemetry instrumentation overhead on the simulator hot path.

The telemetry subsystem instruments ``simulate_mix`` — the function every
grid cell spends its time in — with a scoped timer, a counter, a gauge,
and one event.  This benchmark times the paper-scale workload (900 hosts,
100 iterations) with telemetry enabled (the default) and disabled, and
pins the relative overhead below 5 % — the budget that justifies leaving
instrumentation on everywhere.
"""

import time

import numpy as np

from repro import telemetry
from repro.sim.execution import SimulationOptions, simulate_mix

#: Accepted instrumentation overhead on the hot path.
OVERHEAD_BUDGET = 0.05


def _best_of(repeats, fn):
    """Minimum wall time over ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_telemetry_overhead_under_budget(paper_grid, emit):
    prepared = paper_grid.prepare_mix("RandomLarge")
    mix = prepared.scheduled.mix
    caps = np.full(mix.total_nodes, 200.0)
    eff = prepared.scheduled.efficiencies
    options = SimulationOptions(seed=1)

    def run():
        simulate_mix(mix, caps, eff, paper_grid.model, options)

    telemetry.reset()
    run()  # warm-up: JIT nothing, but page in arrays and code paths
    repeats = 30
    enabled_s = _best_of(repeats, run)
    with telemetry.disabled():
        disabled_s = _best_of(repeats, run)
    telemetry.reset()

    overhead = enabled_s / disabled_s - 1.0
    text = "\n".join([
        "Telemetry overhead on simulate_mix (900 hosts x 100 iterations)",
        f"best-of-{repeats} telemetry ON : {enabled_s * 1e3:8.3f} ms",
        f"best-of-{repeats} telemetry OFF: {disabled_s * 1e3:8.3f} ms",
        f"relative overhead: {overhead:+.2%} (budget {OVERHEAD_BUDGET:.0%})",
    ])
    emit("telemetry_overhead", text)
    assert overhead < OVERHEAD_BUDGET
