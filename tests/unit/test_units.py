"""Unit tests for :mod:`repro.units`."""

import numpy as np
import pytest

from repro import units


class TestEnsurePositive:
    def test_accepts_positive_scalar(self):
        assert units.ensure_positive(3.0, "x") == 3.0

    def test_accepts_positive_array(self):
        arr = np.array([1.0, 2.0])
        assert units.ensure_positive(arr, "x") is arr

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="strictly positive"):
            units.ensure_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="strictly positive"):
            units.ensure_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            units.ensure_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            units.ensure_positive(float("inf"), "x")

    def test_rejects_array_with_one_bad_element(self):
        with pytest.raises(ValueError):
            units.ensure_positive(np.array([1.0, 0.0]), "x")

    def test_error_names_the_parameter(self):
        with pytest.raises(ValueError, match="tdp_w"):
            units.ensure_positive(-5, "tdp_w")


class TestEnsureNonNegative:
    def test_accepts_zero(self):
        assert units.ensure_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            units.ensure_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            units.ensure_non_negative(float("nan"), "x")


class TestEnsureFraction:
    def test_accepts_bounds(self):
        assert units.ensure_fraction(0.0, "x") == 0.0
        assert units.ensure_fraction(1.0, "x") == 1.0

    def test_accepts_interior(self):
        assert units.ensure_fraction(0.25, "x") == 0.25

    def test_rejects_above_one(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            units.ensure_fraction(1.01, "x")

    def test_rejects_below_zero(self):
        with pytest.raises(ValueError):
            units.ensure_fraction(-0.01, "x")

    def test_array_support(self):
        arr = np.array([0.0, 0.5, 1.0])
        assert units.ensure_fraction(arr, "x") is arr

