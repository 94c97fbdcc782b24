"""Unit tests for the cluster container."""

import numpy as np
import pytest

from repro.hardware.cluster import Cluster


class TestConstruction:
    def test_len(self, small_cluster):
        assert len(small_cluster) == 120

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Cluster(node_count=0)

    def test_variation_none_gives_unit_efficiencies(self, flat_cluster):
        np.testing.assert_array_equal(flat_cluster.efficiencies, np.ones(60))

    def test_efficiencies_deterministic_per_seed(self):
        a = Cluster(node_count=50, seed=9)
        b = Cluster(node_count=50, seed=9)
        np.testing.assert_array_equal(a.efficiencies, b.efficiencies)

    def test_different_seeds_differ(self):
        a = Cluster(node_count=50, seed=1)
        b = Cluster(node_count=50, seed=2)
        assert not np.array_equal(a.efficiencies, b.efficiencies)

    def test_total_tdp(self, flat_cluster):
        assert flat_cluster.total_tdp_w == pytest.approx(60 * 240.0)


class TestSurvey:
    def test_survey_shape(self, small_cluster):
        freqs = small_cluster.survey_frequencies(cap_w=140.0, kappa=1.0)
        assert freqs.shape == (120,)

    def test_survey_band(self, small_cluster):
        """Frequencies under a 70 W/socket cap land in the Fig. 6 band."""
        freqs = small_cluster.survey_frequencies(cap_w=140.0, kappa=1.0)
        assert np.all(freqs > 1.4)
        assert np.all(freqs < 2.1)

    def test_efficient_nodes_run_faster(self, small_cluster):
        freqs = small_cluster.survey_frequencies(cap_w=140.0, kappa=1.0)
        order_by_eff = np.argsort(small_cluster.efficiencies)
        # The most efficient node clocks at least as high as the least.
        assert freqs[order_by_eff[0]] > freqs[order_by_eff[-1]]


class TestSubset:
    def test_subset_preserves_efficiencies(self, small_cluster):
        ids = np.array([3, 10, 50])
        sub = small_cluster.subset(ids)
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.efficiencies, small_cluster.efficiencies[ids])

    def test_subset_rejects_out_of_range(self, small_cluster):
        with pytest.raises(ValueError):
            small_cluster.subset([500])

    def test_subset_rejects_empty(self, small_cluster):
        with pytest.raises(ValueError):
            small_cluster.subset([])

    def test_subset_is_independent_copy(self, small_cluster):
        sub = small_cluster.subset([0, 1])
        sub.efficiencies[0] = 99.0
        assert small_cluster.efficiencies[0] != 99.0
