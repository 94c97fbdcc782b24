"""Bench: parallel execution and characterization-cache speedup (Fig. 8 grid).

Before/after wall-clock comparison of the three execution modes on the
paper-scale Fig. 8 savings grid, with the non-negotiable invariant that
every mode produces **byte-identical grid report output**:

* ``serial / uncached`` — the baseline every earlier PR ran.
* ``warm cache`` — a second run against a populated on-disk
  characterization cache (``repro.parallel.cache``): every
  characterize/simulate call is a hit, so the grid pays only
  orchestration and decode.  This is the speedup a re-analysis,
  an online re-planning loop, or a replayed shift sees.
* ``--workers 4`` — the process-pool fan-out.  Its wall-clock gain
  scales with available cores (the recorded artefact includes the host
  core count; on a single-core container the pool cannot beat serial
  and the asserted floor applies to the cache instead).

The physics per cell grows with ``iterations``; 300 iterations keeps the
cell compute realistically heavy relative to the fixed orchestration
cost, matching how the cache is used at paper scale and above.
"""

import dataclasses
import os
import time

from repro.analysis.render import render_table
from repro.experiments.grid import ExperimentConfig, ExperimentGrid
from repro.experiments.metrics import savings_grid
from repro.io.serialize import save_grid_results
from repro.parallel import activate_cache, deactivate_cache
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


def test_parallel_and_cache_speedup(emit, tmp_path):
    config = dataclasses.replace(ExperimentConfig(),
                                 iterations=HEAVY_ITERATIONS)
    cache_dir = tmp_path / "cache"

    serial_s, serial_results, serial_report = _timed_grid_run(config)

    pooled_s, pooled_results, pooled_report = _timed_grid_run(
        config, workers=WORKERS
    )

    try:
        cache = activate_cache(cache_dir=cache_dir)
        prime_s, _, _ = _timed_grid_run(config)   # populates the store
        warm_s, warm_results, warm_report = _timed_grid_run(config)
        stats = cache.stats()
    finally:
        deactivate_cache()

    # ------------------------------------------------------------------
    # Correctness before speed: every mode, byte-identical report + CSV.
    assert pooled_report == serial_report
    assert warm_report == serial_report
    serial_csv = save_grid_results(serial_results, tmp_path / "serial.csv")
    pooled_csv = save_grid_results(pooled_results, tmp_path / "pooled.csv")
    warm_csv = save_grid_results(warm_results, tmp_path / "warm.csv")
    assert pooled_csv.read_bytes() == serial_csv.read_bytes()
    assert warm_csv.read_bytes() == serial_csv.read_bytes()
    for key in serial_results.cells:
        assert pooled_results.cells[key].run.result == \
            serial_results.cells[key].run.result
        assert warm_results.cells[key].run.result == \
            serial_results.cells[key].run.result

    # ------------------------------------------------------------------
    # Speed: the warm cache must at least halve the grid's wall clock.
    cache_speedup = serial_s / warm_s
    pool_speedup = serial_s / pooled_s
    cores = os.cpu_count() or 1
    assert cache_speedup >= 2.0, (
        f"warm-cache run only {cache_speedup:.2f}x faster "
        f"({serial_s:.3f}s -> {warm_s:.3f}s)"
    )
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
                ["serial, uncached", f"{serial_s:.3f}", "1.00x", "baseline"],
                [f"--workers {WORKERS} ({cores} core(s))",
                 f"{pooled_s:.3f}", f"{pool_speedup:.2f}x", "yes"],
                ["cold cache (miss + store)", f"{prime_s:.3f}",
                 f"{serial_s / prime_s:.2f}x", "yes"],
                ["warm cache (all hits)", f"{warm_s:.3f}",
                 f"{cache_speedup:.2f}x", "yes"],
            ],
            title=(
                f"Fig. 8 savings grid ({cells} cells, "
                f"{HEAVY_ITERATIONS} iterations): execution modes "
                f"[cache {stats['hits']} hits / {stats['misses']} misses]"
            ),
        ),
    )
