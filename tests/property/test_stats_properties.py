"""Property-based tests: statistics and renderer robustness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.stats import mean_ci95
from repro.characterization.clustering import kmeans_1d
from repro.workload.facility import moving_average

samples = arrays(
    float,
    st.integers(1, 200),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestStats:
    @given(x=samples)
    @settings(max_examples=200, deadline=None)
    def test_ci_contains_mean(self, x):
        ci = mean_ci95(x)
        assert ci.low <= np.mean(x) <= ci.high

    @given(x=samples)
    @settings(max_examples=200, deadline=None)
    def test_half_width_nonnegative(self, x):
        assert mean_ci95(x).half_width >= 0.0

    @given(x=samples, shift=st.floats(-100.0, 100.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_ci_translation_equivariant(self, x, shift):
        a = mean_ci95(x)
        b = mean_ci95(x + shift)
        np.testing.assert_allclose(b.mean, a.mean + shift, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(b.half_width, a.half_width, rtol=1e-6, atol=1e-6)

class TestMovingAverage:
    @given(
        x=arrays(float, st.integers(1, 300),
                 elements=st.floats(-1e3, 1e3, allow_nan=False)),
        window=st.integers(1, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_extremes(self, x, window):
        out = moving_average(x, window)
        assert np.all(out >= np.min(x) - 1e-9)
        assert np.all(out <= np.max(x) + 1e-9)

    @given(
        x=arrays(float, st.integers(2, 300),
                 elements=st.floats(-1e3, 1e3, allow_nan=False)),
        window=st.integers(1, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_length_preserved(self, x, window):
        assert moving_average(x, window).shape == x.shape


class TestKmeans:
    @given(
        x=arrays(float, st.integers(10, 300),
                 elements=st.floats(0.0, 100.0, allow_nan=False)),
        k=st.integers(2, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_labels_and_centroids_consistent(self, x, k):
        if np.unique(x).size < k:
            return  # degenerate data is rejected; covered by unit tests
        labels, centroids = kmeans_1d(x, k=k)
        assert labels.shape == x.shape
        assert np.all(labels >= 0) and np.all(labels < k)
        assert np.all(np.diff(centroids) >= 0)

    @given(
        x=arrays(float, st.integers(10, 200),
                 elements=st.floats(0.0, 100.0, allow_nan=False)),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_point_nearest_own_centroid(self, x):
        if np.unique(x).size < 3:
            return
        labels, centroids = kmeans_1d(x, k=3)
        dist_own = np.abs(x - centroids[labels])
        dist_all = np.abs(x[:, None] - centroids[None, :]).min(axis=1)
        np.testing.assert_allclose(dist_own, dist_all, atol=1e-9)
