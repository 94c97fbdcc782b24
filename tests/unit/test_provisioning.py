"""Unit tests for the over-provisioning analysis."""

import pytest

from repro.experiments.provisioning import overprovisioning_curve
from repro.workload.kernel import KernelConfig


class TestCurve:
    @pytest.fixture(scope="class")
    def compute_curve(self, execution_model):
        return overprovisioning_curve(
            KernelConfig(intensity=32.0), 24_000.0, execution_model, points=8
        )

    def test_fleet_range(self, compute_curve):
        # 24 kW: 100 nodes at TDP, ~176 at the floor.
        assert compute_curve.tdp_provisioned().nodes == 100
        assert compute_curve.points[-1].nodes >= 170

    def test_caps_respect_budget(self, compute_curve):
        for p in compute_curve.points:
            assert p.nodes * p.cap_per_node_w <= 24_000.0 + 1e-6

    def test_caps_never_exceed_tdp(self, compute_curve):
        for p in compute_curve.points:
            assert p.cap_per_node_w <= 240.0 + 1e-9

    def test_fleet_throughput_is_product(self, compute_curve):
        for p in compute_curve.points:
            assert p.fleet_gflops == pytest.approx(
                p.nodes * p.per_node_gflops
            )

    def test_per_node_rate_decreases_with_fleet(self, compute_curve):
        rates = [p.per_node_gflops for p in compute_curve.points]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))

    def test_optimum_beats_tdp_sizing(self, compute_curve):
        assert compute_curve.gain_over_tdp_provisioning() > 0.0

    def test_memory_bound_gains_more(self, execution_model):
        mem = overprovisioning_curve(
            KernelConfig(intensity=0.25), 24_000.0, execution_model, points=8
        )
        cpu = overprovisioning_curve(
            KernelConfig(intensity=32.0), 24_000.0, execution_model, points=8
        )
        assert (
            mem.gain_over_tdp_provisioning()
            > cpu.gain_over_tdp_provisioning()
        )

    def test_zero_intensity_supported(self, execution_model):
        curve = overprovisioning_curve(
            KernelConfig(intensity=0.0), 10_000.0, execution_model, points=4
        )
        assert all(p.fleet_gflops > 0 for p in curve.points)

    def test_smallest_budget_keeps_caps_at_floor(self, execution_model):
        curve = overprovisioning_curve(
            KernelConfig(intensity=8.0), 272.0, execution_model
        )
        assert [p.nodes for p in curve.points] == [1, 2]
        assert all(p.cap_per_node_w >= 136.0 for p in curve.points)

    def test_rejects_bad_inputs(self, execution_model):
        with pytest.raises(ValueError):
            overprovisioning_curve(
                KernelConfig(intensity=1.0), -5.0, execution_model
            )
        with pytest.raises(ValueError):
            overprovisioning_curve(
                KernelConfig(intensity=1.0), 1000.0, execution_model, points=1
            )
        # Below 2 x 136 W no second fleet size keeps its caps at or above
        # the RAPL floor.
        for budget in (200.0, 250.0):
            with pytest.raises(ValueError, match="floor"):
                overprovisioning_curve(
                    KernelConfig(intensity=8.0), budget, execution_model
                )
