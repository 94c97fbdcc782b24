"""Analytic model of the synthetic arithmetic-intensity kernel.

The kernel (paper §IV-A, Fig. 2) is a bulk-synchronous loop.  Each
iteration, every rank performs a *compute phase* — streaming loads plus
fused-multiply-add arithmetic at a configurable FLOPs/byte ratio — and then
enters an ``MPI_Barrier``.  Ranks on the critical path perform ``imbalance``
times the common work; the remaining *waiting ranks* finish early and
busy-poll at the barrier ("consuming energy without making any application
progress").

Granularity note
----------------
GEOPM's power balancer and every policy in the paper act at *node*
granularity (RAPL is a package-level knob).  Work imbalance therefore only
creates power-shifting opportunity when critical and non-critical ranks
live on different nodes, which is how the benchmark is laid out here: a
``waiting_fraction`` of a job's **nodes** carry only common work and the
rest carry the ``imbalance``-scaled critical-path work.  Within a node all
ranks behave identically.

Activity factor
---------------
The socket power model needs an activity factor ``kappa`` per
configuration.  ``kappa`` is calibrated directly against the paper's Fig. 4
heat map (uncapped node power for the ymm kernel): power dips slightly for
purely memory-bound settings, peaks at 8 FLOPs/byte — the roofline ridge,
where both the vector FMA ports and the memory pipeline saturate — and
eases off for very high intensities where loads starve.  128-bit (xmm)
variants drive the vector units half as wide and draw proportionally less
core power.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.units import ensure_fraction, ensure_non_negative, ensure_positive

__all__ = [
    "VectorWidth",
    "Precision",
    "KernelConfig",
    "activity_factor",
    "POLL_ACTIVITY_FACTOR",
    "INTENSITY_GRID",
    "WAITING_IMBALANCE_GRID",
]


class VectorWidth(enum.Enum):
    """SIMD register width of the kernel's FMA instructions."""

    XMM = "xmm"  # 128-bit
    YMM = "ymm"  # 256-bit

    @property
    def bits(self) -> int:
        """Register width in bits."""
        return 128 if self is VectorWidth.XMM else 256


class Precision(enum.Enum):
    """Floating-point precision of the kernel's arithmetic."""

    SINGLE = "sp"
    DOUBLE = "dp"


#: Intensity values of the paper's Fig. 4/5 heat-map rows (FLOPs/byte),
#: plus the pure-streaming 0 FLOPs/byte configuration used in Table II.
INTENSITY_GRID: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: (waiting_fraction, imbalance) pairs of the Fig. 4/5 heat-map columns.
WAITING_IMBALANCE_GRID: Tuple[Tuple[float, int], ...] = (
    (0.0, 1),
    (0.25, 2),
    (0.25, 3),
    (0.50, 2),
    (0.50, 3),
    (0.75, 2),
    (0.75, 3),
)

# kappa calibration anchors: log2(intensity) -> activity factor, inverted
# from the 0 %-waiting column of the paper's Fig. 4 via
# P_node = 2 * (uncore + kappa * core_poly(f_turbo)).
_KAPPA_LOG2_INTENSITY = np.array([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
_KAPPA_VALUES = np.array([0.900, 0.915, 0.906, 0.892, 0.910, 0.958, 1.000, 0.953, 0.925])

# Intensities below 0.125 FLOPs/byte (including 0) share the pure-streaming
# activity level; the load pipeline is saturated either way.
_KAPPA_MIN_INTENSITY = 0.125

#: Narrow-vector kernels drive half-width FMA ports.
_XMM_ACTIVITY_SCALE = 0.88

#: Single-precision halves the per-element data traffic pressure slightly.
_SP_ACTIVITY_SCALE = 0.97

#: Busy-polling at MPI_Barrier: a tight scalar spin loop.  High enough that
#: uncapped power is nearly insensitive to the waiting-rank percentage
#: (paper Fig. 4), low enough that every Fig. 4 row declines mildly toward
#: the 75 %-waiting column, as in the paper (calibrated to ~207 W/node
#: uncapped, just below the cheapest compute configuration).
POLL_ACTIVITY_FACTOR = 0.885


def activity_factor(intensity, vector: VectorWidth = VectorWidth.YMM,
                    precision: Precision = Precision.DOUBLE):
    """Activity factor ``kappa`` for a kernel configuration (vectorised).

    Piecewise-linear in log2(intensity) through the Fig. 4 calibration
    anchors, scaled for vector width and precision.  Result is clipped to
    (0, 1].
    """
    i = np.asarray(intensity, dtype=float)
    ensure_non_negative(i, "intensity")
    x = np.log2(np.maximum(i, _KAPPA_MIN_INTENSITY))
    kappa = np.interp(x, _KAPPA_LOG2_INTENSITY, _KAPPA_VALUES)
    if vector is VectorWidth.XMM:
        kappa = kappa * _XMM_ACTIVITY_SCALE
    if precision is Precision.SINGLE:
        kappa = kappa * _SP_ACTIVITY_SCALE
    return np.clip(kappa, 1e-3, 1.0)


@dataclass(frozen=True)
class KernelConfig:
    """One configuration of the synthetic kernel.

    Parameters
    ----------
    intensity:
        Arithmetic intensity in FLOPs/byte (0 = pure memory streaming).
    vector:
        SIMD width of the FMA instructions.
    precision:
        Arithmetic precision.
    waiting_fraction:
        Fraction of the job's nodes on the non-critical path.  Must be 0
        when ``imbalance`` is 1 (a balanced kernel has no waiting ranks).
    imbalance:
        Critical-path work multiplier (1 = balanced, paper uses 2 and 3).
    common_traffic_gb:
        Memory traffic of the common work per node per iteration, GB.
        Sets the iteration timescale; the default gives iterations of a
        few tens of milliseconds, matching a fine-grained BSP kernel.
    """

    intensity: float
    vector: VectorWidth = VectorWidth.YMM
    precision: Precision = Precision.DOUBLE
    waiting_fraction: float = 0.0
    imbalance: int = 1
    common_traffic_gb: float = 2.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.intensity, "intensity")
        ensure_fraction(self.waiting_fraction, "waiting_fraction")
        ensure_positive(self.common_traffic_gb, "common_traffic_gb")
        if self.imbalance < 1:
            raise ValueError("imbalance must be >= 1")
        if self.imbalance == 1 and self.waiting_fraction > 0:
            raise ValueError(
                "a balanced kernel (imbalance=1) cannot have waiting ranks; "
                "waiting_fraction must be 0"
            )
        if self.imbalance > 1 and self.waiting_fraction == 0:
            raise ValueError(
                "imbalance > 1 requires waiting_fraction > 0 (someone must wait)"
            )
        # The activity factor is a pure function of the (frozen) config;
        # computing it here keeps the interpolation and its input
        # validation off the per-epoch hot paths.
        object.__setattr__(
            self,
            "_kappa",
            float(activity_factor(self.intensity, self.vector, self.precision)),
        )
        # Planning hashes a config per launch row.  The hash is cached,
        # and built from numbers and bools only: an enum member hashes
        # its string value, which PYTHONHASHSEED randomises, and a cached
        # value crosses process pools inside the pickled config.
        object.__setattr__(self, "_hash", hash((
            self.intensity, self.vector is VectorWidth.XMM,
            self.precision is Precision.SINGLE, self.waiting_fraction,
            self.imbalance, self.common_traffic_gb,
        )))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    @property
    def kappa(self) -> float:
        """Compute-phase activity factor for the socket power model."""
        return self._kappa

    @property
    def compute_ceiling(self) -> str:
        """Name of the roofline compute ceiling this kernel is bound by."""
        prec = "dp" if self.precision is Precision.DOUBLE else "sp"
        return f"{prec}_fma_{self.vector.value}"

    @property
    def common_flops_gflop(self) -> float:
        """FLOPs of the common work per node per iteration (GFLOP)."""
        return self.intensity * self.common_traffic_gb

    def node_work(self, critical: bool) -> Tuple[float, float]:
        """(traffic_gb, gflop) for one node-iteration.

        Critical-path nodes carry ``imbalance`` times the common work.
        """
        scale = float(self.imbalance) if critical else 1.0
        return scale * self.common_traffic_gb, scale * self.common_flops_gflop

    def label(self) -> str:
        """Compact human-readable identifier used in reports and figures."""
        parts = [f"{self.intensity:g}f/b", self.vector.value]
        if self.precision is Precision.SINGLE:
            parts.append("sp")
        if self.imbalance > 1:
            parts.append(f"{int(self.waiting_fraction * 100)}%w@{self.imbalance}x")
        else:
            parts.append("balanced")
        return "-".join(parts)

    @staticmethod
    def grid_column_label(waiting_fraction: float, imbalance: int) -> str:
        """Column label matching the paper's Fig. 4/5 heat maps."""
        if imbalance == 1:
            return "0%"
        return f"{int(waiting_fraction * 100)}% at {imbalance}x"
