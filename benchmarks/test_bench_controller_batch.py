"""Bench: batched controller runtime vs the serial feedback loop.

The acceptance benchmark of the batched runtime: the full Fig. 5
characterization sweep — 8 intensities x 7 waiting/imbalance columns =
56 balancer cells on 8 hosts, each converging the real
``PowerBalancerAgent`` under a TDP x hosts budget — run once as 56
serial ``Controller`` loops and once as a single ``ControllerBatch``.
This is the regime the batch was built for: every epoch of the serial
path pays Python-loop and small-array overhead per cell, while the
batch advances all still-active cells through one ``(runs, hosts)``
physics pass and one batched agent step.

Bit-identity between the two paths is asserted unconditionally for
every cell (reports, epochs, and final limits), for the balancer sweep
and for the same 56 cells under a 1.8 GHz ``FrequencyGovernorAgent``
(the batched frequency governor).  The >= 4x speedup assertion and
best-of-N timing are skipped under ``REPRO_SMOKE=1`` (the CI smoke job,
which only checks the benchmark still runs).

Writes ``benchmarks/output/controller_batch.txt`` with the measured
timings.
"""

import os
import time

import numpy as np

from repro import telemetry
from repro.hardware.cluster import Cluster
from repro.runtime.batch import ControllerRunSpec, run_controller_batch
from repro.runtime.controller import Controller
from repro.runtime.frequency_governor import FrequencyGovernorAgent
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.sim.engine import ExecutionModel
from repro.workload.job import Job
from repro.workload.kernel import WAITING_IMBALANCE_GRID, KernelConfig
from repro.characterization.monitor_runs import DEFAULT_HEATMAP_INTENSITIES

HOSTS = 8
MAX_EPOCHS = 300
SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def _cell_configs():
    return [
        KernelConfig(intensity=intensity, waiting_fraction=waiting,
                     imbalance=imbalance)
        for intensity in DEFAULT_HEATMAP_INTENSITIES
        for waiting, imbalance in WAITING_IMBALANCE_GRID
    ]


def _sweep(model, eff, make_agent):
    configs = _cell_configs()

    def spec(config):
        job = Job(name=f"bench-{config.label()}", config=config,
                  node_count=HOSTS)
        return job, make_agent()

    def looped():
        results = []
        for config in configs:
            job, agent = spec(config)
            controller = Controller(job, eff, agent, model=model)
            report = controller.run(max_epochs=MAX_EPOCHS)
            results.append((report, controller.final_limits_w()))
        return results

    def batched():
        specs = [
            ControllerRunSpec(job=job, efficiencies=eff, agent=agent)
            for job, agent in (spec(config) for config in configs)
        ]
        return run_controller_batch(specs, model=model, max_epochs=MAX_EPOCHS)

    return configs, looped, batched


def test_balancer_sweep_batched_vs_looped(emit):
    cluster = Cluster(node_count=HOSTS, variation=None, seed=0)
    eff = cluster.efficiencies
    model = ExecutionModel()
    budget = model.power_model.tdp_w * HOSTS
    repeats = 1 if SMOKE else 3

    with telemetry.disabled():
        configs, looped, batched = _sweep(
            model, eff, lambda: PowerBalancerAgent(job_budget_w=budget)
        )

        # Correctness first, always: every cell bit-identical to serial.
        batch_result = _assert_bit_identical(configs, looped, batched)

        t_loop = min(_timed(looped) for _ in range(repeats))
        t_batch = min(_timed(batched) for _ in range(repeats))

    speedup = t_loop / t_batch
    epochs = batch_result.epochs
    lines = [
        "Batched controller runtime: full Fig. 5 balancer sweep, "
        f"{len(configs)} cells x {HOSTS} hosts",
        "",
        f"convergence: {int(np.min(epochs))}-{int(np.max(epochs))} epochs "
        f"per cell (mean {float(np.mean(epochs)):.1f}), "
        f"{int(np.count_nonzero(batch_result.converged))}/{len(configs)} "
        "converged",
        f"  looped  ({len(configs)}x Controller.run): {t_loop * 1e3:8.2f} ms",
        f"  batched (1x ControllerBatch.run):   {t_batch * 1e3:8.2f} ms",
        f"  speedup: {speedup:.2f}x  (best of {repeats})",
        "  bit-identical to serial: True (all cells, reports + limits)",
    ]
    emit("controller_batch", "\n".join(lines))
    if not SMOKE:
        assert speedup >= 4.0, (
            f"batched sweep only {speedup:.2f}x faster than the serial loop"
        )


def test_frequency_governor_sweep_bit_identical():
    """The same 56 cells under the batched frequency governor: every cell
    bit-identical to its serial loop (asserted in smoke runs too)."""
    cluster = Cluster(node_count=HOSTS, variation=None, seed=0)
    with telemetry.disabled():
        configs, looped, batched = _sweep(
            ExecutionModel(), cluster.efficiencies,
            lambda: FrequencyGovernorAgent(target_freq_ghz=1.8),
        )
        _assert_bit_identical(configs, looped, batched)


def _assert_bit_identical(configs, looped, batched):
    """Run both paths; assert reports and final limits match per cell."""
    serial_results = looped()
    batch_result = batched()
    assert len(serial_results) == len(configs)
    for c, (report, limits) in enumerate(serial_results):
        assert report == batch_result.reports[c], configs[c].label()
        np.testing.assert_array_equal(
            limits, batch_result.final_limits_w(c)
        )
    return batch_result


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
