"""Unit tests for the synthetic kernel model (paper §IV, Fig. 2)."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.workload.kernel import (
    INTENSITY_GRID,
    POLL_ACTIVITY_FACTOR,
    WAITING_IMBALANCE_GRID,
    KernelConfig,
    Precision,
    VectorWidth,
    activity_factor,
)


class TestGrids:
    def test_intensity_grid_matches_paper_rows(self):
        assert INTENSITY_GRID == (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

    def test_waiting_grid_matches_paper_columns(self):
        assert (0.0, 1) in WAITING_IMBALANCE_GRID
        assert (0.75, 3) in WAITING_IMBALANCE_GRID
        assert len(WAITING_IMBALANCE_GRID) == 7


class TestActivityFactor:
    def test_peaks_at_intensity_8(self):
        """Fig. 4's power peak sits at 8 FLOPs/byte."""
        grid = np.array([0.25, 0.5, 1, 2, 4, 8, 16, 32], dtype=float)
        kappas = activity_factor(grid)
        assert grid[np.argmax(kappas)] == 8.0
        assert kappas.max() == pytest.approx(1.0)

    def test_dips_at_intensity_1(self):
        """Fig. 4 shows the lowest power at 1 FLOP/byte (209 W row)."""
        grid = np.array([0.25, 0.5, 1, 2, 4], dtype=float)
        kappas = activity_factor(grid)
        assert grid[np.argmin(kappas)] == 1.0

    def test_zero_intensity_equals_pure_streaming(self):
        assert activity_factor(0.0) == activity_factor(0.125)

    def test_xmm_lower_than_ymm(self):
        ymm = activity_factor(8.0, VectorWidth.YMM)
        xmm = activity_factor(8.0, VectorWidth.XMM)
        assert xmm < ymm

    def test_sp_slightly_lower_than_dp(self):
        dp = activity_factor(8.0, precision=Precision.DOUBLE)
        sp = activity_factor(8.0, precision=Precision.SINGLE)
        assert sp < dp

    def test_bounded_in_unit_interval(self):
        grid = np.geomspace(0.01, 1000, 100)
        kappas = activity_factor(grid)
        assert np.all(kappas > 0)
        assert np.all(kappas <= 1.0)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            activity_factor(-1.0)

    def test_poll_activity_in_calibrated_band(self):
        """Busy-poll power sits inside the compute activity band, making
        uncapped power insensitive to the waiting fraction (Fig. 4)."""
        kappas = activity_factor(np.array(INTENSITY_GRID[1:]))
        assert kappas.min() - 0.05 < POLL_ACTIVITY_FACTOR < kappas.max()


class TestKernelConfig:
    def test_balanced_defaults(self):
        cfg = KernelConfig(intensity=4.0)
        assert cfg.imbalance == 1
        assert cfg.waiting_fraction == 0.0

    def test_rejects_waiting_without_imbalance(self):
        with pytest.raises(ValueError, match="cannot have waiting ranks"):
            KernelConfig(intensity=4.0, waiting_fraction=0.5)

    def test_rejects_imbalance_without_waiting(self):
        with pytest.raises(ValueError, match="someone must wait"):
            KernelConfig(intensity=4.0, imbalance=2)

    def test_rejects_imbalance_below_one(self):
        with pytest.raises(ValueError):
            KernelConfig(intensity=4.0, imbalance=0)

    def test_node_work_scales_with_imbalance(self):
        cfg = KernelConfig(intensity=4.0, waiting_fraction=0.5, imbalance=3)
        crit_bytes, crit_flops = cfg.node_work(critical=True)
        wait_bytes, wait_flops = cfg.node_work(critical=False)
        assert crit_bytes == pytest.approx(3 * wait_bytes)
        assert crit_flops == pytest.approx(3 * wait_flops)

    def test_flops_follow_intensity(self):
        cfg = KernelConfig(intensity=8.0, common_traffic_gb=2.0)
        assert cfg.common_flops_gflop == pytest.approx(16.0)

    def test_zero_intensity_zero_flops(self):
        cfg = KernelConfig(intensity=0.0)
        assert cfg.common_flops_gflop == 0.0

    def test_compute_ceiling_name(self):
        assert KernelConfig(intensity=1.0).compute_ceiling == "dp_fma_ymm"
        assert (
            KernelConfig(intensity=1.0, vector=VectorWidth.XMM).compute_ceiling
            == "dp_fma_xmm"
        )
        assert (
            KernelConfig(intensity=1.0, precision=Precision.SINGLE).compute_ceiling
            == "sp_fma_ymm"
        )

    def test_kappa_matches_function(self):
        cfg = KernelConfig(intensity=8.0)
        assert cfg.kappa == pytest.approx(float(activity_factor(8.0)))

    def test_label_balanced(self):
        assert KernelConfig(intensity=8.0).label() == "8f/b-ymm-balanced"

    def test_label_imbalanced(self):
        cfg = KernelConfig(intensity=16.0, waiting_fraction=0.75, imbalance=3)
        assert cfg.label() == "16f/b-ymm-75%w@3x"

    def test_grid_column_label(self):
        assert KernelConfig.grid_column_label(0.0, 1) == "0%"
        assert KernelConfig.grid_column_label(0.5, 2) == "50% at 2x"

    def test_frozen(self):
        cfg = KernelConfig(intensity=1.0)
        with pytest.raises(AttributeError):
            cfg.intensity = 2.0  # type: ignore[misc]

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_config_pickled_under_another_hash_seed_finds_its_equal(self, seed):
        """The cached hash holds across processes: a config pickled where
        PYTHONHASHSEED differs (it randomises enum members' hashes) still
        finds its equal in a dict, as configs crossing a pool must."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import pickle, sys\n"
                "from repro.workload.kernel import (KernelConfig, "
                "Precision, VectorWidth)\n"
                "sys.stdout.buffer.write(pickle.dumps(KernelConfig("
                "8.0, VectorWidth.XMM, Precision.SINGLE, 0.5, 2)))")
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             check=True, env=env).stdout
        here = KernelConfig(8.0, VectorWidth.XMM, Precision.SINGLE, 0.5, 2)
        table = {here: "found", KernelConfig(8.0): "other"}
        assert table[pickle.loads(out)] == "found"


class TestVectorWidth:
    def test_bits(self):
        assert VectorWidth.XMM.bits == 128
        assert VectorWidth.YMM.bits == 256
