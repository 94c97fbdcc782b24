"""Unit tests for the mix characterization bundle."""

import numpy as np
import pytest

from repro.characterization.mix_characterization import (
    MixCharacterization,
    _characterization_arrays,
    characterize_mix,
)
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


def _mix(jobs_spec):
    jobs = tuple(
        Job(
            name=f"j{i}",
            config=KernelConfig(
                intensity=spec.get("intensity", 8.0),
                waiting_fraction=spec.get("waiting", 0.0),
                imbalance=spec.get("imbalance", 1),
            ),
            node_count=spec.get("nodes", 4),
        )
        for i, spec in enumerate(jobs_spec)
    )
    return WorkloadMix(name="m", jobs=jobs)


class TestValidation:
    def test_efficiency_shape_checked(self, execution_model):
        mix = _mix([{"nodes": 4}])
        with pytest.raises(ValueError, match="efficiencies"):
            characterize_mix(mix, np.ones(2), execution_model)

    def test_bad_harvest_fraction(self, execution_model):
        mix = _mix([{"nodes": 4}])
        with pytest.raises(ValueError, match="harvest_fraction"):
            characterize_mix(mix, np.ones(4), execution_model, harvest_fraction=0.0)

    def test_array_length_consistency(self):
        with pytest.raises(ValueError):
            MixCharacterization(
                mix_name="m",
                job_boundaries=np.array([0, 2]),
                monitor_power_w=np.ones(2),
                needed_power_w=np.ones(3),
                needed_cap_w=np.ones(2),
                min_cap_w=136.0,
                tdp_w=240.0,
            )

    def test_boundary_sentinel_checked(self):
        with pytest.raises(ValueError, match="sentinel"):
            MixCharacterization(
                mix_name="m",
                job_boundaries=np.array([0, 3]),
                monitor_power_w=np.ones(2),
                needed_power_w=np.ones(2),
                needed_cap_w=np.ones(2),
                min_cap_w=136.0,
                tdp_w=240.0,
            )


class TestBalancedJob:
    def test_needed_equals_monitor(self, execution_model):
        """Balanced jobs need all the power they draw (NeedUsedPower's
        defining property)."""
        mix = _mix([{"intensity": 8.0, "nodes": 4}])
        char = characterize_mix(mix, np.ones(4), execution_model)
        np.testing.assert_allclose(char.needed_power_w, char.monitor_power_w, rtol=1e-9)

    def test_monitor_matches_fig4(self, execution_model):
        mix = _mix([{"intensity": 8.0, "nodes": 4}])
        char = characterize_mix(mix, np.ones(4), execution_model)
        np.testing.assert_allclose(char.monitor_power_w, 232.0, atol=1.0)

    def test_waste_zero(self, execution_model):
        mix = _mix([{"intensity": 4.0, "nodes": 4}])
        char = characterize_mix(mix, np.ones(4), execution_model)
        np.testing.assert_allclose(char.waste_w(), 0.0, atol=1e-9)


class TestImbalancedJob:
    @pytest.fixture(scope="class")
    def char(self, execution_model):
        mix = _mix([{"intensity": 8.0, "waiting": 0.5, "imbalance": 3, "nodes": 8}])
        return characterize_mix(mix, np.ones(8), execution_model)

    def test_waiting_hosts_need_less(self, char):
        # First 4 hosts critical, last 4 waiting.
        assert char.needed_power_w[4:].max() < char.needed_power_w[:4].min()

    def test_critical_hosts_need_their_draw(self, char):
        np.testing.assert_allclose(
            char.needed_power_w[:4], char.monitor_power_w[:4], rtol=1e-9
        )

    def test_harvest_fraction_interpolates(self, execution_model):
        mix = _mix([{"intensity": 8.0, "waiting": 0.5, "imbalance": 3, "nodes": 8}])
        eff = np.ones(8)
        half = characterize_mix(mix, eff, execution_model, harvest_fraction=0.5)
        full = characterize_mix(mix, eff, execution_model, harvest_fraction=1.0)
        # Idealised balancer cuts deeper on waiting hosts.
        assert np.all(full.needed_power_w[4:] < half.needed_power_w[4:] - 1.0)
        # Monitor characterization is unaffected by the harvest setting.
        np.testing.assert_allclose(half.monitor_power_w, full.monitor_power_w)

    def test_needed_cap_in_rapl_range(self, char):
        assert np.all(char.needed_cap_w >= char.min_cap_w - 1e-9)
        assert np.all(char.needed_cap_w <= char.tdp_w + 1e-9)

    def test_fig5_vertical_band_effect(self, execution_model):
        """More waiting ranks -> lower job-mean needed power (the Fig. 5
        vertical bands)."""
        means = []
        for waiting in (0.25, 0.5, 0.75):
            mix = _mix([
                {"intensity": 8.0, "waiting": waiting, "imbalance": 2, "nodes": 8}
            ])
            char = characterize_mix(mix, np.ones(8), execution_model)
            means.append(float(np.mean(char.needed_power_w)))
        assert means[0] > means[1] > means[2]


class TestAggregates:
    def test_job_max_monitor(self, execution_model):
        mix = _mix([{"intensity": 8.0, "nodes": 2}, {"intensity": 1.0, "nodes": 2}])
        char = characterize_mix(mix, np.ones(4), execution_model)
        maxima = char.job_max_monitor_power_w()
        assert maxima.shape == (2,)
        assert maxima[0] > maxima[1]

    def test_host_job_index(self, execution_model):
        mix = _mix([{"nodes": 2}, {"nodes": 3}])
        char = characterize_mix(mix, np.ones(5), execution_model)
        np.testing.assert_array_equal(char.host_job_index(), [0, 0, 1, 1, 1])

    def test_job_slice(self, execution_model):
        mix = _mix([{"nodes": 2}, {"nodes": 3}])
        char = characterize_mix(mix, np.ones(5), execution_model)
        assert char.job_slice(1) == slice(2, 5)
        with pytest.raises(IndexError):
            char.job_slice(2)

    def test_job_groups(self, execution_model):
        mix = _mix([{"nodes": 2}, {"nodes": 3}, {"nodes": 2}, {"nodes": 1}])
        char = characterize_mix(mix, np.ones(8), execution_model)
        groups = [(ids.tolist(), index.tolist())
                  for ids, index in char.job_groups()]
        assert groups == [
            ([0, 2], [[0, 1], [5, 6]]),
            ([1], [[2, 3, 4]]),
            ([3], [[7]]),
        ]
        # The grouping is computed once per characterization.
        assert char._blocks_by_length is char._blocks_by_length

    def test_variation_raises_inefficient_node_power(self, execution_model):
        mix = _mix([{"intensity": 8.0, "nodes": 2}])
        eff = np.array([0.9, 1.1])
        char = characterize_mix(mix, eff, execution_model)
        assert char.monitor_power_w[1] > char.monitor_power_w[0]


class TestStackedPhysicsPass:
    def test_equals_one_call_per_cap_level(self, execution_model):
        """The TDP and RAPL-floor caps share one stacked kernel call; each
        array equals the one-row call at that cap level bit for bit."""
        mix = _mix([
            {"intensity": 0.25, "nodes": 9},
            {"intensity": 2.0, "waiting": 0.5, "imbalance": 2, "nodes": 17},
            {"intensity": 32.0, "nodes": 8},
            {"intensity": 8.0, "waiting": 0.75, "imbalance": 3, "nodes": 33},
        ])
        layout = mix.layout()
        eff = np.random.default_rng(4).uniform(0.85, 1.15, layout.host_count)
        model = execution_model
        pm = model.power_model
        physics = model.bind(layout, eff)
        _, _, t_unc, p_compute, p_poll = physics(
            np.full(layout.host_count, pm.tdp_w))
        t_crit = np.maximum.reduceat(t_unc, layout.job_boundaries[:-1])
        t_crit_per_host = t_crit[layout.job_index]
        slack = np.maximum(t_crit_per_host - t_unc, 0.0)
        monitor = (p_compute * t_unc + p_poll * slack) / t_crit_per_host
        floor_power = model.bind(layout, eff)(
            np.full(layout.host_count, pm.min_cap_w))[3]
        theoretical = np.clip(
            model.required_power(layout, t_crit_per_host, eff),
            floor_power, monitor)
        got_monitor, got_theoretical = _characterization_arrays(
            model, layout, eff)
        assert np.array_equal(got_monitor, monitor)
        assert np.array_equal(got_theoretical, theoretical)
