"""Parallel runs must be bit-identical to serial runs.

The contract the whole parallel layer is built on: worker count and
replay order may change *wall-clock time* but never a single bit of any
result.
"""

import numpy as np
import pytest

from repro.experiments.grid import ExperimentConfig, ExperimentGrid
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.parallel.tasks import site_replays
from repro.workload.kernel import KernelConfig


@pytest.fixture()
def tiny_grid_config():
    return ExperimentConfig.small(nodes_per_job=4, iterations=10)


def _grid_results(config, **kwargs):
    return ExperimentGrid(config).run_all(mixes=["LowPower"], **kwargs)


class TestGridDeterminism:
    def test_workers_four_matches_serial_bit_for_bit(self, tiny_grid_config):
        serial = _grid_results(tiny_grid_config, workers=1)
        pooled = _grid_results(tiny_grid_config, workers=4)
        assert set(serial.cells) == set(pooled.cells)
        for key in serial.cells:
            a = serial.cells[key].run
            b = pooled.cells[key].run
            assert a.result == b.result, key  # exact MixRunResult equality
            np.testing.assert_array_equal(a.allocation.caps_w,
                                          b.allocation.caps_w)


def _arrival_stream(nodes, count=4):
    return [
        Arrival(
            time_s=float(i),
            request=JobRequest(
                f"replay-job-{i}",
                KernelConfig(intensity=float(2 ** (1 + i % 3)),
                             waiting_fraction=0.25 * (i % 2),
                             imbalance=1 + i % 2),
                node_count=nodes,
                iterations=10,
            ),
        )
        for i in range(count)
    ]


class TestSiteReplayDeterminism:
    def test_replays_worker_count_invariant(self, small_grid):
        nodes = 4
        cluster = small_grid.partition.subset(np.arange(3 * nodes))
        arrivals = _arrival_stream(nodes)
        serial = site_replays(arrivals, cluster, "MixedAdaptive", 2400.0,
                              replays=3, workers=1)
        pooled = site_replays(arrivals, cluster, "MixedAdaptive", 2400.0,
                              replays=3, workers=3)
        for a, b in zip(serial, pooled):
            assert a.batches == b.batches
            assert a.total_energy_j == b.total_energy_j
            assert a.job_turnaround_s == b.job_turnaround_s

    def test_replays_use_independent_noise(self, small_grid):
        nodes = 4
        cluster = small_grid.partition.subset(np.arange(3 * nodes))
        runs = site_replays(_arrival_stream(nodes), cluster, "MixedAdaptive",
                            2400.0, replays=3, workers=1)
        energies = {r.total_energy_j for r in runs}
        assert len(energies) == 3  # distinct seeds, distinct noise

    def test_rerun_of_same_arrivals_is_identical(self, small_grid):
        """Regression: run_site_simulation used to mutate the caller's
        JobRequest lifecycle states, so a second run of the same arrival
        stream saw every job already COMPLETED and produced zero
        batches.  Requests are immutable now; the queue owns the
        lifecycle."""
        from repro.core.registry import create_policy

        nodes = 4
        cluster = small_grid.partition.subset(np.arange(3 * nodes))
        arrivals = _arrival_stream(nodes)
        first = run_site_simulation(arrivals, cluster,
                                    create_policy("MixedAdaptive"), 2400.0)
        second = run_site_simulation(arrivals, cluster,
                                     create_policy("MixedAdaptive"), 2400.0)
        assert first.batches  # the stream actually ran
        assert second.batches == first.batches
        assert second.completed == first.completed
        assert arrivals == _arrival_stream(nodes)

    def test_rejects_nonpositive_replays(self, small_grid):
        cluster = small_grid.partition.subset(np.arange(12))
        with pytest.raises(ValueError, match="replays"):
            site_replays(_arrival_stream(4), cluster, "MixedAdaptive",
                         2400.0, replays=0)
