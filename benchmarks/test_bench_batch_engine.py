"""Bench: batched scenario engine vs the per-call loop.

The acceptance benchmark of the batched path: a 16-rung uniform-cap
ladder over a 96-host mix, evaluated once as 16 serial ``simulate_mix``
calls and once as a single ``simulate_cap_batch`` pass.  The ladder runs
at the experiment grid's sweep iteration count (10, as in
``ExperimentConfig.small``) — the regime the batch path was built for,
where per-call overhead rather than raw array work dominates the loop.
At 100 iterations with noise both paths are bound by the identical
per-scenario lognormal draw (bit-identity pins the exact RNG stream), so
the ratio shrinks toward 1; the artifact records both shapes.

Bit-identity between the two paths is asserted unconditionally; the
>= 3x speedup assertion and the best-of-5 timing are skipped under
``REPRO_SMOKE=1`` (the CI smoke job, which only checks the benchmark
still runs).

Writes ``benchmarks/output/batch_engine.txt`` with the measured timings.
"""

import dataclasses
import os
import time

import numpy as np

from repro.parallel.seeding import child_seed
from repro.sim.batch import simulate_cap_batch
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig

RUNGS = 16
HOSTS_PER_JOB = 48
ITERATIONS = 10
SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def _ladder_mix(iterations: int) -> WorkloadMix:
    jobs = (
        Job(name="imbalanced",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
            node_count=HOSTS_PER_JOB, iterations=iterations),
        Job(name="streaming",
            config=KernelConfig(intensity=0.25),
            node_count=HOSTS_PER_JOB, iterations=iterations),
    )
    return WorkloadMix(name=f"bench-ladder-{iterations}", jobs=jobs)


def _run_ladder(iterations: int, repeats: int):
    """Time the looped and batched ladder; assert rung-level bit-identity."""
    mix = _ladder_mix(iterations)
    hosts = mix.total_nodes
    eff = np.random.default_rng(17).uniform(0.9, 1.1, hosts)
    rung_caps = np.linspace(140.0, 240.0, RUNGS)
    seeds = [child_seed(0, index, f"{float(cap)!r}")
             for index, cap in enumerate(rung_caps)]
    options = SimulationOptions(noise_std=0.008, seed=0)
    caps_sw = np.broadcast_to(rung_caps[:, np.newaxis], (RUNGS, hosts))

    def looped():
        return [
            simulate_mix(mix, np.full(hosts, float(cap)), eff, None,
                         dataclasses.replace(options, seed=seed))
            for cap, seed in zip(rung_caps, seeds)
        ]

    def batched():
        return simulate_cap_batch(mix, caps_sw, eff, options=options, seeds=seeds)

    # Correctness first, always: each batched rung bit-identical to serial.
    serial_results = looped()
    batch_results = batched()
    assert all(a == b for a, b in zip(serial_results, batch_results))

    t_loop = min(_timed(looped) for _ in range(repeats))
    t_batch = min(_timed(batched) for _ in range(repeats))
    return hosts, t_loop, t_batch


def test_cap_ladder_batched_vs_looped(emit):
    repeats = 1 if SMOKE else 5
    hosts, t_loop, t_batch = _run_ladder(ITERATIONS, repeats)
    speedup = t_loop / t_batch
    lines = [
        "Batched scenario engine: 16-rung uniform-cap ladder, "
        f"{hosts} hosts, noise_std = 0.008",
        "",
        f"sweep shape ({ITERATIONS} iterations, as in the experiment grid):",
        f"  looped  (16x simulate_mix):      {t_loop * 1e3:8.2f} ms",
        f"  batched (1x simulate_cap_batch): {t_batch * 1e3:8.2f} ms",
        f"  speedup: {speedup:.2f}x  (best of {repeats})",
        "  bit-identical to serial: True",
    ]
    if not SMOKE:
        # The long-iteration shape is RNG-bound on both sides (the noise
        # stream is pinned by the determinism contract), so the ratio is
        # structurally smaller; recorded for honesty, not asserted.
        _, t_loop_long, t_batch_long = _run_ladder(100, repeats)
        lines += [
            "",
            "long shape (100 iterations, noise-generation bound):",
            f"  looped  (16x simulate_mix):      {t_loop_long * 1e3:8.2f} ms",
            f"  batched (1x simulate_cap_batch): {t_batch_long * 1e3:8.2f} ms",
            f"  speedup: {t_loop_long / t_batch_long:.2f}x  (best of {repeats})",
            "  bit-identical to serial: True",
        ]
    emit("batch_engine", "\n".join(lines))
    if not SMOKE:
        assert speedup >= 3.0, (
            f"batched ladder only {speedup:.2f}x faster than the loop"
        )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
