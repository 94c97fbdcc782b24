"""Unit tests for the socket frequency/power model (paper Table I)."""

import numpy as np
import pytest

from repro.hardware.cpu import CpuSpec, QUARTZ_CPU


class TestCpuSpec:
    def test_table1_constants(self):
        """The defaults are the paper's Table I values."""
        assert QUARTZ_CPU.tdp_w == 120.0
        assert QUARTZ_CPU.min_rapl_w == 68.0
        assert QUARTZ_CPU.base_freq_ghz == 2.1
        assert QUARTZ_CPU.cores * 2 == 36  # cores per node

    def test_rejects_min_freq_above_turbo(self):
        with pytest.raises(ValueError, match="min_freq_ghz"):
            CpuSpec(min_freq_ghz=3.0, turbo_freq_ghz=2.2)

    def test_rejects_floor_above_tdp(self):
        with pytest.raises(ValueError, match="min_rapl_w"):
            CpuSpec(min_rapl_w=130.0, tdp_w=120.0)

    def test_rejects_uncore_above_floor(self):
        with pytest.raises(ValueError, match="uncore"):
            CpuSpec(uncore_power_w=70.0)

    def test_rejects_nonpositive_tdp(self):
        with pytest.raises(ValueError):
            CpuSpec(tdp_w=0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            QUARTZ_CPU.tdp_w = 100.0  # type: ignore[misc]


class TestForwardMap:
    def test_power_increases_with_frequency(self, socket_model):
        freqs = np.linspace(1.0, 2.2, 20)
        powers = socket_model.power_at(freqs, kappa=1.0)
        assert np.all(np.diff(powers) > 0)

    def test_power_increases_with_activity(self, socket_model):
        low = socket_model.power_at(2.0, kappa=0.8)
        high = socket_model.power_at(2.0, kappa=1.0)
        assert high > low

    def test_power_increases_with_inefficiency(self, socket_model):
        nominal = socket_model.power_at(2.0, 1.0, efficiency=1.0)
        worse = socket_model.power_at(2.0, 1.0, efficiency=1.1)
        assert worse > nominal

    def test_uncore_floor(self, socket_model):
        """Power never falls below the uncore constant."""
        p = socket_model.power_at(0.0, kappa=1.0)
        assert p == pytest.approx(QUARTZ_CPU.uncore_power_w)

    def test_broadcasting(self, socket_model):
        freqs = np.array([1.5, 2.0])
        kappas = np.array([0.9, 1.0])
        out = socket_model.power_at(freqs, kappas)
        assert out.shape == (2,)


class TestInverseMap:
    def test_roundtrip_within_dvfs_band(self, socket_model):
        """freq -> power -> freq is the identity inside the DVFS band."""
        for f in (1.2, 1.5, 1.9, 2.1):
            p = socket_model.power_at(f, kappa=0.95)
            back = socket_model.freq_at_power(p, kappa=0.95)
            assert back == pytest.approx(f, rel=1e-9)

    def test_turbo_clamp(self, socket_model):
        """Huge budgets clamp at the all-core turbo ceiling."""
        f = socket_model.freq_at_power(500.0, kappa=1.0)
        assert f == pytest.approx(QUARTZ_CPU.turbo_freq_ghz)

    def test_min_freq_clamp(self, socket_model):
        """Budgets below the uncore floor clamp at the minimum frequency."""
        f = socket_model.freq_at_power(QUARTZ_CPU.uncore_power_w / 2, kappa=1.0)
        assert f == pytest.approx(QUARTZ_CPU.min_freq_ghz)

    def test_monotone_in_power(self, socket_model):
        powers = np.linspace(30.0, 120.0, 50)
        freqs = socket_model.freq_at_power(powers, kappa=1.0)
        assert np.all(np.diff(freqs) >= -1e-12)

    def test_calibration_uncapped_power(self, socket_model):
        """The hottest configuration draws ~116 W uncapped (232 W/node,
        the peak cell of the paper's Fig. 4)."""
        assert socket_model.uncapped_power(1.0) == pytest.approx(116.0, abs=0.5)

    def test_calibration_fig6_band(self, socket_model):
        """A 70 W cap puts the hottest workload at ~1.75 GHz on a nominal
        part — the centre of the paper's Fig. 6 medium cluster."""
        f = socket_model.freq_at_power(70.0, kappa=1.0)
        assert 1.70 < f < 1.80

    def test_variation_spreads_fig6_band(self, socket_model):
        """Efficient and inefficient parts bracket the nominal frequency."""
        f_bad = socket_model.freq_at_power(70.0, 1.0, efficiency=1.105)
        f_good = socket_model.freq_at_power(70.0, 1.0, efficiency=0.90)
        f_nom = socket_model.freq_at_power(70.0, 1.0)
        assert f_bad < f_nom < f_good
        assert 1.55 < f_bad and f_good < 2.0


class TestDerived:
    def test_floor_power_below_floor_cap(self, socket_model):
        """Floor consumption never exceeds the floor cap."""
        assert socket_model.floor_power(1.0) <= QUARTZ_CPU.min_rapl_w + 1e-9

    def test_uncapped_power_below_tdp_for_low_activity(self, socket_model):
        """Low-activity workloads are turbo-limited, not TDP-limited."""
        p = socket_model.uncapped_power(0.85)
        assert p < QUARTZ_CPU.tdp_w

    def test_cubic_solver_vectorised(self, socket_model):
        budgets = np.linspace(1.0, 110.0, 1000)
        f = socket_model._solve_core_cubic(budgets)
        # Verify each root satisfies the cubic.
        c3, c1 = QUARTZ_CPU.dynamic_coeff, QUARTZ_CPU.static_coeff
        residual = c3 * f**3 + c1 * f - budgets
        assert np.max(np.abs(residual)) < 1e-6
