"""Statistics helpers for the evaluation metrics.

The paper reports each Fig. 8 bar with a 95 % confidence interval
"calculated over measurements from 100 iterations per benchmark
configuration".  :func:`mean_ci95` reproduces that (normal-approximation
interval over per-iteration samples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConfidenceInterval", "mean_ci95"]

#: Two-sided 97.5 % normal quantile.
_Z_95 = 1.959963984540054


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric confidence half-width."""

    mean: float
    half_width: float

    @property
    def low(self) -> float:
        """Lower bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_ci95(samples: np.ndarray) -> ConfidenceInterval:
    """Mean with a normal-approximation 95 % CI over the samples.

    Matches the paper's error bars: the standard error of the mean over
    per-iteration measurements, scaled by the 97.5 % normal quantile.  A
    single sample yields a zero-width interval.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("need at least one sample")
    mean = float(np.mean(x))
    if x.size == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0)
    sem = float(np.std(x, ddof=1)) / np.sqrt(x.size)
    return ConfidenceInterval(mean=mean, half_width=_Z_95 * sem)

