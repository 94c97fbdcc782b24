"""Physical-unit conventions and validation helpers.

Every quantity in this library is a plain ``float`` or :class:`numpy.ndarray`
in a fixed SI-derived unit.  The conventions are:

===============  ==========================  =======================
Quantity         Unit                        Typical symbol
===============  ==========================  =======================
power            watt (W)                    ``power_w``
energy           joule (J)                   ``energy_j``
time             second (s)                  ``time_s``
frequency        gigahertz (GHz)             ``freq_ghz``
bandwidth        gigabytes per second        ``bw_gbps``
throughput       gigaFLOPS (GFLOP/s)         ``gflops``
work (compute)   gigaFLOPs                   ``gflop``
work (memory)    gigabytes                   ``gbyte``
intensity        FLOPs per byte              ``intensity``
===============  ==========================  =======================

Frequencies are kept in GHz (not Hz) because the power model's polynomial
coefficients are calibrated against GHz, and GFLOPS = GHz x FLOPs/cycle
then works without scale factors.

The helpers here raise :class:`ValueError` early with a descriptive message
instead of letting a bad unit propagate into the vectorised simulation where
it would surface as a cryptic broadcast error.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ensure_positive",
    "ensure_non_negative",
    "ensure_fraction",
]


def _validate(value, name: str, within, requirement: str):
    """Raise :class:`ValueError` unless ``value`` is finite and
    ``within`` holds for it everywhere; return ``value`` unchanged.

    A Python ``int`` or ``float`` (``bool`` and ``np.float64`` included)
    is checked without building an array, with the array path's verdict,
    messages and exception types (an ``int`` too large for a float raises
    :class:`OverflowError` on both paths).
    """
    if isinstance(value, (int, float)):
        finite = math.isfinite(value)
        inside = finite and within(value)
    else:
        arr = np.asarray(value, dtype=float)
        finite = np.all(np.isfinite(arr))
        inside = finite and np.all(within(arr))
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not inside:
        raise ValueError(f"{name} must be {requirement}, got {value!r}")
    return value


def ensure_positive(value, name: str):
    """Validate that ``value`` (scalar or array) is strictly positive.

    Returns the value unchanged so the helper can be used inline::

        self.tdp_w = ensure_positive(tdp_w, "tdp_w")
    """
    return _validate(value, name, lambda v: v > 0, "strictly positive")


def ensure_non_negative(value, name: str):
    """Validate that ``value`` (scalar or array) is >= 0; return it."""
    return _validate(value, name, lambda v: v >= 0, "non-negative")


def ensure_fraction(value, name: str):
    """Validate that ``value`` lies in the closed interval [0, 1]; return it."""
    return _validate(value, name, lambda v: (v >= 0.0) & (v <= 1.0),
                     "within [0, 1]")
