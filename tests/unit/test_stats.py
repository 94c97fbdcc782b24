"""Unit tests for the statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import ConfidenceInterval, mean_ci95


class TestConfidenceInterval:
    def test_bounds(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0)
        assert ci.low == 8.0
        assert ci.high == 12.0

    def test_contains(self):
        ci = ConfidenceInterval(mean=0.0, half_width=1.0)
        assert ci.contains(0.5)
        assert not ci.contains(1.5)

    def test_str(self):
        assert "±" in str(ConfidenceInterval(1.0, 0.1))


class TestMeanCi95:
    def test_single_sample_zero_width(self):
        ci = mean_ci95(np.array([3.0]))
        assert ci.mean == 3.0
        assert ci.half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci95(np.array([]))

    def test_constant_samples(self):
        ci = mean_ci95(np.full(100, 5.0))
        assert ci.mean == 5.0
        assert ci.half_width == pytest.approx(0.0)

    def test_known_normal_coverage(self):
        """~95 % of CIs from normal samples cover the true mean."""
        rng = np.random.default_rng(0)
        hits = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(10.0, 2.0, size=100)
            if mean_ci95(sample).contains(10.0):
                hits += 1
        assert 0.90 < hits / trials < 0.99

    def test_width_shrinks_with_n(self):
        rng = np.random.default_rng(1)
        small = mean_ci95(rng.normal(size=20))
        large = mean_ci95(rng.normal(size=2000))
        assert large.half_width < small.half_width

    def test_matrix_flattened(self):
        ci = mean_ci95(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert ci.mean == pytest.approx(2.5)

