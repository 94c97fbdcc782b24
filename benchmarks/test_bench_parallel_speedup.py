"""Bench: process-pool speedup on the paper-scale Fig. 8 grid.

Before/after wall-clock comparison of serial and pooled execution of the
paper-scale Fig. 8 savings grid, with the non-negotiable invariant that
both modes produce **byte-identical grid report output**:

* ``serial`` — the baseline.
* ``--workers 4`` — the process-pool fan-out.  Its wall-clock gain
  scales with available cores (the recorded artefact includes the host
  core count); the ≥ 2x floor is asserted only on hosts with at least
  ``WORKERS`` cores, since on fewer the pool cannot beat serial.

The physics per cell grows with ``iterations``; 300 iterations keeps the
cell compute heavy relative to the fixed orchestration and pool start-up
cost, so the pool's gain is visible.
"""

import dataclasses
import os
import time

from repro.analysis.render import render_table
from repro.experiments.grid import ExperimentConfig, ExperimentGrid
from repro.experiments.metrics import savings_grid
from repro.io.serialize import save_grid_results
from repro.workload.mixes import MIX_NAMES

HEAVY_ITERATIONS = 300
WORKERS = 4


def _savings_report(results):
    """The Fig. 8 savings table rendered to text (the grid report)."""
    savings = savings_grid(results)
    rows = []
    for key in sorted(savings):
        s = savings[key]
        rows.append([
            *key,
            f"{100 * s.time_savings.mean:+.3f}",
            f"{100 * s.energy_savings.mean:+.3f}",
        ])
    return render_table(
        ["mix", "budget", "policy", "time %", "energy %"], rows,
        title="Fig. 8 savings vs StaticCaps",
    )


def _timed_grid_run(config, workers=1):
    grid = ExperimentGrid(config)
    start = time.perf_counter()
    results = grid.run_all(workers=workers)
    report = _savings_report(results)
    return time.perf_counter() - start, results, report


def test_parallel_speedup(emit, tmp_path):
    config = dataclasses.replace(ExperimentConfig(),
                                 iterations=HEAVY_ITERATIONS)

    serial_s, serial_results, serial_report = _timed_grid_run(config)

    pooled_s, pooled_results, pooled_report = _timed_grid_run(
        config, workers=WORKERS
    )

    # ------------------------------------------------------------------
    # Correctness before speed: byte-identical report + CSV.
    assert pooled_report == serial_report
    serial_csv = save_grid_results(serial_results, tmp_path / "serial.csv")
    pooled_csv = save_grid_results(pooled_results, tmp_path / "pooled.csv")
    assert pooled_csv.read_bytes() == serial_csv.read_bytes()
    for key in serial_results.cells:
        assert pooled_results.cells[key].run.result == \
            serial_results.cells[key].run.result

    # ------------------------------------------------------------------
    # Speed: on enough cores the pool must at least halve the wall clock.
    pool_speedup = serial_s / pooled_s
    cores = os.cpu_count() or 1
    if cores >= WORKERS:
        assert pool_speedup >= 2.0, (
            f"--workers {WORKERS} only {pool_speedup:.2f}x faster on "
            f"{cores} cores ({serial_s:.3f}s -> {pooled_s:.3f}s)"
        )

    cells = len(MIX_NAMES) * 3 * 5
    emit(
        "parallel_speedup",
        render_table(
            ["mode", "wall s", "speedup", "identical output"],
            [
                ["serial", f"{serial_s:.3f}", "1.00x", "baseline"],
                [f"--workers {WORKERS} ({cores} core(s))",
                 f"{pooled_s:.3f}", f"{pool_speedup:.2f}x", "yes"],
            ],
            title=(
                f"Fig. 8 savings grid ({cells} cells, "
                f"{HEAVY_ITERATIONS} iterations): execution modes"
            ),
        ),
    )
