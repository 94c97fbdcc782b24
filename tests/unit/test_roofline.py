"""Unit tests for the roofline model (paper Fig. 3)."""

import numpy as np
import pytest

from repro.hardware.roofline import (
    ADVISOR_SINGLE_CORE_ROOFLINE,
    NODE_LEVEL_ROOFLINE,
    BandwidthCeiling,
    ComputeCeiling,
    RooflineModel,
)


class TestCeilings:
    def test_bandwidth_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BandwidthCeiling("X", 0.0)

    def test_bandwidth_rejects_bad_sensitivity(self):
        with pytest.raises(ValueError):
            BandwidthCeiling("X", 10.0, freq_sensitivity=1.5)

    def test_bandwidth_effective_at_base(self):
        c = BandwidthCeiling("X", 100.0, freq_sensitivity=0.5)
        assert c.effective(1.0) == pytest.approx(100.0)

    def test_bandwidth_sensitivity_blend(self):
        c = BandwidthCeiling("X", 100.0, freq_sensitivity=0.5)
        # Half the bandwidth scales with frequency: at half frequency the
        # effective bandwidth is 75 %.
        assert c.effective(0.5) == pytest.approx(75.0)

    def test_insensitive_bandwidth_constant(self):
        c = BandwidthCeiling("X", 100.0, freq_sensitivity=0.0)
        assert c.effective(0.1) == pytest.approx(100.0)

    def test_compute_scales_linearly(self):
        c = ComputeCeiling("fma", 40.0)
        assert c.effective(0.5) == pytest.approx(20.0)


class TestModelStructure:
    def test_advisor_has_paper_ceilings(self):
        """The Fig. 3 constants are present verbatim."""
        r = ADVISOR_SINGLE_CORE_ROOFLINE
        assert r.bandwidth("L1").bw_gbps == pytest.approx(314.65)
        assert r.bandwidth("DRAM").bw_gbps == pytest.approx(12.44)
        assert r.compute("dp_vector_fma").gflops == pytest.approx(38.49)
        assert r.compute("sp_vector_fma").gflops == pytest.approx(61.98)

    def test_unknown_level_raises(self):
        with pytest.raises(KeyError):
            ADVISOR_SINGLE_CORE_ROOFLINE.bandwidth("L9")

    def test_unknown_compute_raises(self):
        with pytest.raises(KeyError):
            ADVISOR_SINGLE_CORE_ROOFLINE.compute("quantum")

    def test_working_set_level_validated(self):
        with pytest.raises(ValueError, match="working_set_level"):
            RooflineModel(
                name="bad",
                bandwidths=(BandwidthCeiling("L1", 100.0),),
                computes=(ComputeCeiling("c", 10.0),),
                working_set_level="DRAM",
            )

    def test_needs_ceilings(self):
        with pytest.raises(ValueError):
            RooflineModel(name="empty", bandwidths=(), computes=())


class TestAttainable:
    def test_memory_bound_region(self):
        """Below the ridge, attainable throughput is intensity * BW."""
        r = ADVISOR_SINGLE_CORE_ROOFLINE
        g = r.attainable_gflops(0.1, "dp_vector_fma")
        assert g == pytest.approx(0.1 * 12.44)

    def test_compute_bound_region(self):
        r = ADVISOR_SINGLE_CORE_ROOFLINE
        g = r.attainable_gflops(40.0, "dp_vector_fma")
        assert g == pytest.approx(38.49)

    def test_ridge_point(self):
        """Memory and compute ceilings meet at peak / bandwidth."""
        r = ADVISOR_SINGLE_CORE_ROOFLINE
        ridge = 38.49 / 12.44
        assert r.attainable_gflops(ridge, "dp_vector_fma") == pytest.approx(38.49)
        assert r.attainable_gflops(0.99 * ridge, "dp_vector_fma") < 38.49

    def test_node_ridge_below_four(self):
        """The node ridge sits below intensity 4, so the paper's 4-32
        FLOPs/byte configurations are compute-bound (power-responsive)."""
        r = NODE_LEVEL_ROOFLINE
        peak = r.compute("dp_fma_ymm").gflops
        assert r.attainable_gflops(4.0, "dp_fma_ymm") == pytest.approx(peak)

    def test_envelope_monotone_in_intensity(self):
        r = NODE_LEVEL_ROOFLINE
        intensities = np.geomspace(0.01, 100, 50)
        env = r.attainable_gflops(intensities, "dp_fma_ymm")
        assert np.all(np.diff(env) >= -1e-9)

    def test_xmm_is_half_ymm(self):
        r = NODE_LEVEL_ROOFLINE
        assert r.compute("dp_fma_xmm").gflops == pytest.approx(
            r.compute("dp_fma_ymm").gflops / 2
        )


class TestPlotSeries:
    def test_series_keys(self):
        r = ADVISOR_SINGLE_CORE_ROOFLINE
        series = r.as_plot_series("dp_vector_fma", np.geomspace(0.01, 40, 10))
        assert "attainable" in series
        assert "bw:DRAM" in series
        assert "compute:dp_vector_fma" in series

    def test_attainable_below_all_relevant_ceilings(self):
        r = ADVISOR_SINGLE_CORE_ROOFLINE
        x = np.geomspace(0.01, 40, 30)
        series = r.as_plot_series("dp_vector_fma", x)
        assert np.all(series["attainable"] <= series["bw:DRAM"] + 1e-9)
        assert np.all(series["attainable"] <= series["compute:dp_vector_fma"] + 1e-9)
