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
from typing import Optional

import numpy as np

from repro.runtime.agent import (
    Agent,
    AgentBatch,
    DEFAULT_REGISTRY,
    PlatformSample,
    RowState,
    SampleBatch,
    batch_options,
    finite_or_sentinel,
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


@dataclass
class _GovernorState(RowState):
    """The frequency loop's state (row shape ``()`` or ``(G,)``)."""

    limits_w: Optional[np.ndarray]         # (..., hosts) limits programmed
    prev_limits_w: Optional[np.ndarray]    # (..., hosts) the step before
    prev_freq_ghz: Optional[np.ndarray]    # (..., hosts) last observed
    slope_w_per_ghz: Optional[np.ndarray]  # (..., hosts) W/GHz estimates
    max_error_ghz: np.ndarray              # worst host's tracking error

    @classmethod
    def fresh(cls, rows=()) -> "_GovernorState":
        return cls(None, None, None, None, np.full(rows, np.inf))


def _step(target_ghz, state: _GovernorState, sample,
          opts: FrequencyGovernorOptions) -> _GovernorState:
    """One proportional step of every row toward its target frequency.

    The sample's per-host arrays are ``(..., hosts)``; ``target_ghz``
    broadcasts against them (a float, or ``(G, 1)``).  Returns the next
    state.
    """
    freq = np.asarray(sample.mean_freq_ghz, dtype=float)
    if state.started:
        limits, prev_limits = state.limits_w, state.prev_limits_w
        prev_freq, slope = state.prev_freq_ghz, state.slope_w_per_ghz.copy()
    else:
        # The first epoch seeds the loop from the limits in force.
        limits = prev_limits = np.array(sample.power_limit_w, dtype=float)
        prev_freq = freq
        slope = np.full(freq.shape, opts.initial_slope_w_per_ghz)

    # Refine the per-host W/GHz slope from the last actuation, where both
    # the limit and the frequency actually moved.
    dl = limits - prev_limits
    df = freq - prev_freq
    moved = (np.abs(df) > 1e-6) & (np.abs(dl) > 1e-6)
    slope[moved] = _clip(np.abs(dl[moved] / df[moved]), 30.0, 400.0)

    error = target_ghz - freq
    step = opts.gain * error * slope
    return _GovernorState(
        limits_w=_clip(limits + step, opts.min_limit_w, opts.max_limit_w),
        prev_limits_w=limits, prev_freq_ghz=freq.copy(),
        slope_w_per_ghz=slope, max_error_ghz=np.abs(error).max(axis=-1),
    )


def _converged(state: _GovernorState, opts: FrequencyGovernorOptions):
    """All hosts within tolerance of the target, or pinned at a bound.

    Saturated at a bound without reaching the target is steady, not
    converged onto the requested frequency: the verdict still stops the
    controller, and :func:`_describe` exposes the residual.
    """
    error, limits = state.max_error_ghz, state.limits_w
    at_bound = state.started and (
        (limits <= opts.min_limit_w + 1e-9)
        | (limits >= opts.max_limit_w - 1e-9)
    ).all(axis=-1)
    return (at_bound & (error > opts.tolerance_ghz)) | (
        error <= opts.tolerance_ghz
    )


def _describe(target_ghz, state: _GovernorState):
    """Target and the residual tracking error of one loop."""
    return {
        "target_freq_ghz": float(target_ghz),
        "max_error_ghz": finite_or_sentinel(state.max_error_ghz),
    }


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
        self._state = _GovernorState.fresh()

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """One proportional step toward the target frequency."""
        self._state = _step(self.target_freq_ghz, self._state, sample,
                            self.options)
        return self._state.limits_w.copy()

    def converged(self) -> bool:
        """All hosts within tolerance of the target, or pinned at a bound."""
        return bool(_converged(self._state, self.options))

    def describe(self):
        """Target and the residual tracking error."""
        return _describe(self.target_freq_ghz, self._state)

    @classmethod
    def make_batch(cls, agents) -> "_FrequencyGovernorBatch":
        """Batch a group of fresh governors sharing one options value;
        targets may differ per run."""
        targets = np.array([a.target_freq_ghz for a in agents], dtype=float)
        return _FrequencyGovernorBatch(targets, batch_options(agents))


class _FrequencyGovernorBatch(AgentBatch):
    """``G`` frequency loops stepped by the serial agent's kernels."""

    def __init__(self, targets_ghz: np.ndarray,
                 options: FrequencyGovernorOptions) -> None:
        self.options = options
        self._targets_ghz = targets_ghz
        self._state = _GovernorState.fresh(targets_ghz.shape)

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        state = _step(self._targets_ghz[rows, None], self._state.take(rows),
                      sample, self.options)
        self._state.put(rows, state)
        return state.limits_w

    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        return _converged(self._state.take(rows), self.options)

    def describe_run(self, row: int):
        return _describe(self._targets_ghz[row], self._state.take(row))
