"""Fixed-frequency agent: GEOPM's frequency-pinning plugin, emulated.

GEOPM ships a frequency-oriented agent family (``frequency_map``) that
holds cores at a requested operating frequency — sites use it for
run-to-run reproducibility studies and for energy sweeps.  The stack here
actuates through RAPL only, so the agent achieves a target frequency by
feedback on the power limit: each epoch it compares the achieved
frequency against the target and nudges the limit proportionally.

The agent is model-free like the balancer: it never consults the
simulator's power model, only observed (frequency, limit) pairs, and it
estimates the local W-per-GHz slope from consecutive epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.agent import (
    Agent,
    AgentBatch,
    DEFAULT_REGISTRY,
    PlatformSample,
    SampleBatch,
)
from repro.units import ensure_positive

__all__ = ["FrequencyGovernorOptions", "FrequencyGovernorAgent"]


def _clip(values, lo, hi):
    """``np.clip`` as two plain ufuncs (same values, no wrapper cost)."""
    return np.minimum(np.maximum(values, lo), hi)


@dataclass(frozen=True)
class FrequencyGovernorOptions:
    """Tuning of the frequency feedback loop."""

    gain: float = 0.8
    tolerance_ghz: float = 0.005
    min_limit_w: float = 136.0
    max_limit_w: float = 240.0
    #: Initial W-per-GHz slope estimate; refined online from observations.
    initial_slope_w_per_ghz: float = 120.0

    def __post_init__(self) -> None:
        ensure_positive(self.gain, "gain")
        ensure_positive(self.tolerance_ghz, "tolerance_ghz")
        ensure_positive(self.initial_slope_w_per_ghz, "initial_slope_w_per_ghz")
        if self.max_limit_w <= self.min_limit_w:
            raise ValueError("max_limit_w must exceed min_limit_w")


@DEFAULT_REGISTRY.register
class FrequencyGovernorAgent(Agent):
    """Hold every host at ``target_freq_ghz`` via RAPL feedback.

    Parameters
    ----------
    target_freq_ghz:
        The frequency to pin (must lie inside the DVFS band to be
        reachable; an unreachable target saturates at a RAPL bound and
        the agent reports non-convergence).
    options:
        Feedback tuning.
    """

    name = "frequency_governor"

    def __init__(self, target_freq_ghz: float,
                 options: "FrequencyGovernorOptions | None" = None) -> None:
        ensure_positive(target_freq_ghz, "target_freq_ghz")
        self.target_freq_ghz = float(target_freq_ghz)
        self.options = (options if options is not None
                        else FrequencyGovernorOptions())
        self._limits: np.ndarray | None = None
        self._prev_freq: np.ndarray | None = None
        self._prev_limits: np.ndarray | None = None
        self._slope: np.ndarray | None = None
        self._max_error_ghz = np.inf

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """One proportional step toward the target frequency."""
        opts = self.options
        freq = np.asarray(sample.mean_freq_ghz, dtype=float)
        if self._limits is None:
            n = freq.size
            self._limits = np.asarray(sample.power_limit_w, dtype=float).copy()
            self._slope = np.full(n, opts.initial_slope_w_per_ghz)
            self._prev_freq = freq.copy()
            self._prev_limits = self._limits.copy()

        # Refine the per-host W/GHz slope from the last actuation, where
        # both the limit and the frequency actually moved.
        dl = self._limits - self._prev_limits
        df = freq - self._prev_freq
        moved = (np.abs(df) > 1e-6) & (np.abs(dl) > 1e-6)
        self._slope[moved] = _clip(np.abs(dl[moved] / df[moved]), 30.0, 400.0)

        error = self.target_freq_ghz - freq
        self._max_error_ghz = float(np.abs(error).max())
        step = opts.gain * error * self._slope
        new_limits = _clip(
            self._limits + step, opts.min_limit_w, opts.max_limit_w
        )
        self._prev_freq = freq.copy()
        self._prev_limits = self._limits
        self._limits = new_limits
        return new_limits.copy()

    def converged(self) -> bool:
        """All hosts within tolerance of the target, or pinned at a bound."""
        if self._limits is None:
            return False
        at_bound = (
            (self._limits <= self.options.min_limit_w + 1e-9)
            | (self._limits >= self.options.max_limit_w - 1e-9)
        )
        if bool(at_bound.all()) and self._max_error_ghz > self.options.tolerance_ghz:
            # Saturated without reaching the target: steady, not converged
            # onto the requested frequency — report convergence so the
            # controller stops, but expose the residual via describe().
            return True
        return self._max_error_ghz <= self.options.tolerance_ghz

    def describe(self):
        """Target and the residual tracking error."""
        return {
            "target_freq_ghz": self.target_freq_ghz,
            "max_error_ghz": (
                self._max_error_ghz if np.isfinite(self._max_error_ghz) else -1.0
            ),
        }

    @classmethod
    def make_batch(cls, agents) -> "_FrequencyGovernorBatch | None":
        """Batch a group of governors with equal options.

        Targets may differ per run.  Returns ``None`` (→ per-run fallback
        in the batched controller) when the group mixes options or holds
        an agent that has already stepped, as the balancer does.
        """
        options = agents[0].options
        if any(a.options != options for a in agents[1:]):
            return None
        if any(a._limits is not None for a in agents):
            return None
        targets = np.array([a.target_freq_ghz for a in agents], dtype=float)
        return _FrequencyGovernorBatch(targets, options)


class _FrequencyGovernorBatch(AgentBatch):
    """Vectorised frequency governor: G feedback loops stepped as tensors.

    Each expression mirrors :meth:`FrequencyGovernorAgent.adjust` and
    :meth:`~FrequencyGovernorAgent.converged` term for term; the slope
    refit gathers the moved hosts of every row in one boolean index, which
    applies the serial per-row gather's elementwise operations unchanged,
    so each row is bit-identical to its serial twin.
    """

    def __init__(self, targets_ghz: np.ndarray,
                 options: FrequencyGovernorOptions) -> None:
        self.options = options
        self._targets_ghz = targets_ghz
        self._limits: np.ndarray | None = None      # (G, hosts)
        self._prev_freq: np.ndarray | None = None
        self._prev_limits: np.ndarray | None = None
        self._slope: np.ndarray | None = None
        self._max_error_ghz = np.full(targets_ghz.size, np.inf)

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        opts = self.options
        freq = np.asarray(sample.mean_freq_ghz, dtype=float)
        if self._limits is None:
            # Every member steps on the batch's first epoch (the active
            # set only shrinks afterwards), so ``rows`` is the whole group.
            self._limits = np.asarray(sample.power_limit_w, dtype=float).copy()
            self._slope = np.full(freq.shape, opts.initial_slope_w_per_ghz)
            self._prev_freq = freq.copy()
            self._prev_limits = self._limits.copy()

        limits = self._limits[rows]
        slope = self._slope[rows]
        dl = limits - self._prev_limits[rows]
        df = freq - self._prev_freq[rows]
        moved = (np.abs(df) > 1e-6) & (np.abs(dl) > 1e-6)
        slope[moved] = _clip(np.abs(dl[moved] / df[moved]), 30.0, 400.0)

        error = self._targets_ghz[rows][:, None] - freq
        self._max_error_ghz[rows] = np.abs(error).max(axis=1)
        step = opts.gain * error * slope
        new_limits = _clip(limits + step, opts.min_limit_w, opts.max_limit_w)
        self._slope[rows] = slope
        self._prev_freq[rows] = freq
        self._prev_limits[rows] = limits
        self._limits[rows] = new_limits
        return new_limits

    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        if self._limits is None:
            return np.zeros(rows.size, dtype=bool)
        opts = self.options
        limits = self._limits[rows]
        at_bound = np.all(
            (limits <= opts.min_limit_w + 1e-9)
            | (limits >= opts.max_limit_w - 1e-9),
            axis=1,
        )
        error = self._max_error_ghz[rows]
        # Saturated at a bound without reaching the target also stops the
        # loop (see FrequencyGovernorAgent.converged).
        return (at_bound & (error > opts.tolerance_ghz)) | (
            error <= opts.tolerance_ghz
        )

    def describe_run(self, row: int):
        error = self._max_error_ghz[row]
        return {
            "target_freq_ghz": float(self._targets_ghz[row]),
            "max_error_ghz": float(error) if np.isfinite(error) else -1.0,
        }
