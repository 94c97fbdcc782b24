"""Unit tests for the manufacturing-variation model (paper Fig. 6)."""

import numpy as np
import pytest

from repro.hardware.variation import (
    QUARTZ_VARIATION,
    VariationComponent,
    VariationModel,
)


class TestComponent:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            VariationComponent("x", 0.0, 1.0, 0.01)

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError):
            VariationComponent("x", 0.5, 1.0, 0.0)


class TestModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            VariationModel(
                components=(
                    VariationComponent("a", 0.5, 1.0, 0.01),
                    VariationComponent("b", 0.6, 1.1, 0.01),
                )
            )

    def test_needs_components(self):
        with pytest.raises(ValueError):
            VariationModel(components=())

    def test_quartz_weights_sum(self):
        total = sum(c.weight for c in QUARTZ_VARIATION.components)
        assert total == pytest.approx(1.0)

    def test_labels(self):
        labels = tuple(c.label for c in QUARTZ_VARIATION.components)
        assert labels == ("high", "medium", "low")


class TestSampling:
    def test_sample_count(self, rng):
        draws = QUARTZ_VARIATION.sample(500, rng)
        assert draws.shape == (500,)

    def test_sample_floor(self, rng):
        draws = QUARTZ_VARIATION.sample(10000, rng)
        assert np.all(draws >= 0.8)

    def test_sample_deterministic_per_seed(self):
        a = QUARTZ_VARIATION.sample(100, np.random.default_rng(5))
        b = QUARTZ_VARIATION.sample(100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_near_population_mean(self, rng):
        draws = QUARTZ_VARIATION.sample(50000, rng)
        expected = sum(c.weight * c.mean for c in QUARTZ_VARIATION.components)
        assert np.mean(draws) == pytest.approx(expected, abs=0.005)

    def test_trimodal_structure(self, rng):
        """The three component modes are distinguishable in a big draw."""
        draws = QUARTZ_VARIATION.sample(30000, rng)
        near_high = np.mean(np.abs(draws - 0.90) < 0.05)
        near_med = np.mean(np.abs(draws - 1.00) < 0.05)
        near_low = np.mean(np.abs(draws - 1.105) < 0.05)
        assert near_high > 0.2
        assert near_med > 0.4
        assert near_low > 0.2

    def test_rejects_nonpositive_count(self, rng):
        with pytest.raises(ValueError):
            QUARTZ_VARIATION.sample(0, rng)
