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

import numpy as np

__all__ = [
    "ensure_positive",
    "ensure_non_negative",
    "ensure_fraction",
]

def ensure_positive(value, name: str):
    """Validate that ``value`` (scalar or array) is strictly positive.

    Returns the value unchanged so the helper can be used inline::

        self.tdp_w = ensure_positive(tdp_w, "tdp_w")
    """
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not np.all(arr > 0):
        raise ValueError(f"{name} must be strictly positive, got {value!r}")
    return value


def ensure_non_negative(value, name: str):
    """Validate that ``value`` (scalar or array) is >= 0; return it."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not np.all(arr >= 0):
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def ensure_fraction(value, name: str):
    """Validate that ``value`` lies in the closed interval [0, 1]; return it."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value

