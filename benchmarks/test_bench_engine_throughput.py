"""Bench: raw simulator throughput (the classic pytest-benchmark use).

Times the vectorised execution engine on the paper-scale workload — a
900-host mix over 100 bulk-synchronous iterations — and the policy layer
on a full characterization.  These are the two hot paths of the grid.

Each test reports its best wall time in
``benchmarks/output/engine_*.txt`` via its own stopwatch
(pytest-benchmark's stats are unavailable under ``--benchmark-disable``,
the CI smoke mode).
"""

import time

import numpy as np

from repro.core.registry import create_policy
from repro.sim.execution import SimulationOptions, simulate_mix


def _stopwatch(fn):
    """Wrap ``fn`` so every call's wall time is collected."""
    times = []

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
        return out

    return wrapper, times


def test_simulate_900_host_mix(benchmark, paper_grid, emit):
    prepared = paper_grid.prepare_mix("RandomLarge")
    mix = prepared.scheduled.mix
    caps = np.full(mix.total_nodes, 200.0)
    eff = prepared.scheduled.efficiencies
    options = SimulationOptions(seed=1)

    timed, times = _stopwatch(simulate_mix)
    result = benchmark(timed, mix, caps, eff, paper_grid.model, options)
    assert result.iteration_times_s.shape == (100, 9)
    emit(
        "engine_simulate_mix",
        f"simulate_mix 900 hosts x 100 iterations: best "
        f"{min(times) * 1e3:.2f} ms over {len(times)} calls",
    )


def test_mixed_adaptive_allocation_900_hosts(benchmark, paper_grid, emit):
    prepared = paper_grid.prepare_mix("RandomLarge")
    char = prepared.characterization
    policy = create_policy("MixedAdaptive")
    budget = prepared.budgets.ideal_w

    timed, times = _stopwatch(policy.allocate)
    allocation = benchmark(timed, char, budget)
    assert allocation.within_budget()
    emit(
        "engine_policy_allocate",
        f"MixedAdaptive.allocate over 900 hosts: best "
        f"{min(times) * 1e3:.3f} ms over {len(times)} calls",
    )


def test_full_characterization_900_hosts(benchmark, paper_grid, emit):
    from repro.characterization.mix_characterization import characterize_mix

    prepared = paper_grid.prepare_mix("HighPower")
    scheduled = prepared.scheduled

    timed, times = _stopwatch(characterize_mix)
    char = benchmark(
        timed, scheduled.mix, scheduled.efficiencies, paper_grid.model
    )
    assert char.host_count == 900
    emit(
        "engine_characterize_mix",
        f"characterize_mix over 900 hosts: best "
        f"{min(times) * 1e3:.2f} ms over {len(times)} calls",
    )
