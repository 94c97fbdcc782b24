"""Unit tests for the result container's derived metrics."""

import numpy as np
import pytest

from repro.sim.results import MixRunResult


def _result(iter_times, host_energy, job_index, gflop=100.0, budget=1000.0):
    iter_times = np.asarray(iter_times, dtype=float)
    host_energy = np.asarray(host_energy, dtype=float)
    job_index = np.asarray(job_index, dtype=int)
    jobs = int(job_index.max()) + 1
    elapsed = iter_times.sum(axis=0)
    host_elapsed = elapsed[job_index]
    return MixRunResult(
        mix_name="m",
        policy_name="p",
        budget_w=budget,
        job_names=tuple(f"j{i}" for i in range(jobs)),
        iteration_times_s=iter_times,
        iteration_energy_j=np.full(iter_times.shape[0], host_energy.sum() / iter_times.shape[0]),
        host_energy_j=host_energy,
        host_mean_power_w=host_energy / host_elapsed,
        host_job_index=job_index,
        total_gflop=gflop,
    )


class TestDerived:
    def test_job_elapsed(self):
        res = _result([[1.0, 2.0], [1.0, 2.0]], [10, 10, 20, 20], [0, 0, 1, 1])
        np.testing.assert_allclose(res.job_elapsed_s, [2.0, 4.0])

    def test_mean_elapsed(self):
        res = _result([[1.0, 3.0]], [1, 1], [0, 1])
        assert res.mean_elapsed_s == pytest.approx(2.0)

    def test_total_energy(self):
        res = _result([[1.0]], [5.0, 7.0], [0, 0])
        assert res.total_energy_j == pytest.approx(12.0)

    def test_job_energy_groups_hosts(self):
        res = _result([[1.0, 1.0]], [5.0, 7.0, 11.0], [0, 0, 1])
        np.testing.assert_allclose(res.job_energy_j, [12.0, 11.0])

    def test_mean_system_power_sums_host_powers(self):
        res = _result([[2.0]], [100.0, 300.0], [0, 0])
        # host powers: 50 W and 150 W while running
        assert res.mean_system_power_w == pytest.approx(200.0)

    def test_edp(self):
        res = _result([[2.0]], [100.0], [0])
        assert res.energy_delay_product == pytest.approx(100.0 * 2.0)

    def test_gflops_per_watt(self):
        res = _result([[1.0]], [50.0], [0], gflop=200.0)
        assert res.gflops_per_watt == pytest.approx(4.0)

    def test_budget_utilization(self):
        res = _result([[2.0]], [100.0, 300.0], [0, 0], budget=400.0)
        assert res.budget_utilization() == pytest.approx(0.5)

    def test_gflop_per_iteration(self):
        res = _result([[1.0], [1.0]], [10.0], [0], gflop=100.0)
        assert res.gflop_per_iteration == pytest.approx(50.0)

    def test_summary_keys(self):
        res = _result([[1.0]], [10.0], [0])
        summary = res.summary()
        for key in (
            "budget_w",
            "mean_elapsed_s",
            "total_energy_j",
            "mean_system_power_w",
            "budget_utilization",
            "energy_delay_product",
            "gflops_per_watt",
        ):
            assert key in summary


class TestBudgetOvershoot:
    def _at_caps(self, caps, seconds):
        """Every host of one job drawing its cap for ``seconds`` per iteration."""
        caps = np.asarray(caps, dtype=float)
        times = np.full((2, 1), seconds)
        return MixRunResult(
            mix_name="m",
            policy_name="p",
            budget_w=float(np.sum(caps)),
            job_names=("j0",),
            iteration_times_s=times,
            iteration_energy_j=np.full((2, caps.size), seconds) @ caps,
            host_energy_j=2.0 * seconds * caps,
            host_mean_power_w=caps,
            host_job_index=np.zeros(caps.size, dtype=int),
            total_gflop=1.0,
        )

    def test_caps_summing_to_budget_give_zero(self):
        res = self._at_caps([110.3, 120.7, 150.9], 1.3)
        # The energy sum rounds above budget x duration ...
        assert np.all(res.iteration_power_w > res.budget_w)
        # ... and that residue is not overshoot.
        assert res.budget_overshoot_watt_seconds(res.budget_w) == 0.0

    def test_real_excess_is_billed(self):
        res = self._at_caps([110.3, 120.7, 150.9], 1.3)
        overshoot = res.budget_overshoot_watt_seconds(res.budget_w - 1.0)
        assert overshoot == pytest.approx(2 * 1.3 * 1.0)


def _run_result():
    """A small MixRunResult with awkward float values (simulated noise)."""
    rng = np.random.default_rng(11)
    iteration_times = rng.uniform(0.01, 0.2, size=(5, 4))
    host_energy = rng.uniform(50.0, 900.0, size=4)
    return MixRunResult(
        mix_name="RoundTrip",
        policy_name="MixedAdaptive",
        budget_w=0.1 + 0.2,  # deliberately not representable as 0.3
        job_names=("j0", "j1"),
        iteration_times_s=iteration_times,
        iteration_energy_j=rng.uniform(10.0, 40.0, size=5),
        host_energy_j=host_energy,
        host_mean_power_w=host_energy / iteration_times.sum(axis=0),
        host_job_index=np.array([0, 0, 1, 1]),
        total_gflop=1234.5678,
    )


class TestEquality:
    """``MixRunResult.__eq__`` compares exact bits."""

    def test_equality_is_sensitive_to_a_single_bit(self):
        import dataclasses as _dc

        original = _run_result()
        nudged = _dc.replace(
            original,
            budget_w=np.nextafter(original.budget_w, np.inf),
        )
        assert original == original
        assert original != nudged

    def test_equality_ignores_other_types(self):
        assert _run_result() != "not a result"
