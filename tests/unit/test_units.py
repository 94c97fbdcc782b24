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



class TestPythonNumberFastPath:
    """Python numbers skip the array, with the array path's verdicts,
    messages and exception types."""

    CHECKS = (units.ensure_positive, units.ensure_non_negative,
              units.ensure_fraction)

    @staticmethod
    def _outcome(check, value):
        try:
            return "ok", check(value, "x")
        except (ValueError, OverflowError) as exc:
            return type(exc).__name__, str(exc)

    @staticmethod
    def _array_path(check, value):
        # An object that is not an int/float but converts like ``value``.
        class Boxed:
            def __array__(self, dtype=None, copy=None):
                return np.asarray(value, dtype=dtype)

            def __repr__(self):
                return repr(value)

        boxed = Boxed()
        kind, out = TestPythonNumberFastPath._outcome(check, boxed)
        return kind, value if out is boxed else out

    @pytest.mark.parametrize("value", [
        True, False, 0, 1, -1, 0.0, -0.0, 0.5, 1.0, 2.5, -3.0,
        np.float64("nan"), np.float64(0.25), float("inf"), -float("inf"),
        np.int64(3), np.int64(0),
    ])
    def test_same_outcome_as_the_array_path(self, value):
        for check in self.CHECKS:
            assert self._outcome(check, value) == self._array_path(check, value)

    def test_returns_the_value_itself(self):
        for value in (True, 1, 0.5, np.float64(0.5), np.int64(1)):
            assert units.ensure_positive(value, "x") is value

    def test_bool_and_zero(self):
        assert units.ensure_fraction(True, "x") is True
        assert units.ensure_non_negative(0, "x") == 0
        with pytest.raises(ValueError, match="strictly positive, got 0$"):
            units.ensure_positive(0, "x")
        with pytest.raises(ValueError, match="strictly positive, got False"):
            units.ensure_positive(False, "x")

    def test_numpy_nan_is_not_finite(self):
        with pytest.raises(ValueError, match="must be finite"):
            units.ensure_positive(np.float64("nan"), "x")

    def test_huge_int_overflows_on_both_paths(self):
        for check in self.CHECKS:
            assert self._outcome(check, 10**400)[0] == "OverflowError"
            assert self._array_path(check, 10**400)[0] == "OverflowError"
