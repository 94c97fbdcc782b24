"""Roofline throughput model (Williams, Waterman, Patterson, CACM 2009).

The paper verifies its synthetic kernel against an Intel Advisor roofline
plot (Fig. 3): achieved GFLOPS at each arithmetic intensity should hug the
lower envelope of the platform's bandwidth and compute ceilings.  This
module provides that envelope, parameterised so the same code serves two
roles:

* :data:`ADVISOR_SINGLE_CORE_ROOFLINE` — the single-core ceilings printed
  on the paper's Fig. 3 (L1 314.65 GB/s ... DRAM 12.44 GB/s; DP vector FMA
  38.49 GFLOPS, SP vector FMA 61.98 GFLOPS, ...), used to regenerate that
  figure.
* :data:`NODE_LEVEL_ROOFLINE` — node-level ceilings (34 active cores, two
  sockets) used by the execution simulator to turn a kernel configuration
  and an achieved frequency into an iteration time.

Compute ceilings scale linearly with frequency relative to the base
frequency; bandwidth ceilings are mostly frequency-insensitive for DRAM but
scale with core frequency for cache levels (a stalled core cannot issue
loads), which the model captures with a per-level frequency sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.units import ensure_positive, ensure_fraction

__all__ = [
    "BandwidthCeiling",
    "ComputeCeiling",
    "RooflineModel",
    "ADVISOR_SINGLE_CORE_ROOFLINE",
    "NODE_LEVEL_ROOFLINE",
]


@dataclass(frozen=True)
class BandwidthCeiling:
    """One memory-level bandwidth ceiling.

    Attributes
    ----------
    name:
        Memory level label ("L1", "DRAM", ...).
    bw_gbps:
        Bandwidth at base frequency, GB/s.
    freq_sensitivity:
        Fraction of the bandwidth that scales with core frequency.  0 means
        fully frequency-independent (ideal DRAM); 1 means proportional to
        core frequency (L1).  Effective bandwidth at relative frequency
        ``r = f / f_base`` is ``bw * ((1 - s) + s * r)``.
    """

    name: str
    bw_gbps: float
    freq_sensitivity: float = 1.0

    def __post_init__(self) -> None:
        ensure_positive(self.bw_gbps, f"{self.name} bandwidth")
        ensure_fraction(self.freq_sensitivity, f"{self.name} freq_sensitivity")

    def effective(self, freq_ratio):
        """Bandwidth at relative core frequency ``freq_ratio`` (GB/s)."""
        r = np.asarray(freq_ratio, dtype=float)
        return self.bw_gbps * ((1.0 - self.freq_sensitivity) + self.freq_sensitivity * r)


@dataclass(frozen=True)
class ComputeCeiling:
    """One compute ceiling (instruction mix x precision), GFLOPS at base freq."""

    name: str
    gflops: float

    def __post_init__(self) -> None:
        ensure_positive(self.gflops, f"{self.name} gflops")

    def effective(self, freq_ratio):
        """Throughput at relative core frequency ``freq_ratio`` (GFLOPS)."""
        return self.gflops * np.asarray(freq_ratio, dtype=float)


@dataclass(frozen=True)
class RooflineModel:
    """A set of bandwidth and compute ceilings with roofline evaluation.

    ``working_set_level`` selects which bandwidth ceiling bounds a streaming
    kernel whose working set exceeds every cache (the paper's kernel streams
    from DRAM; cache ceilings appear on the plot but do not bound it).
    """

    name: str
    bandwidths: Tuple[BandwidthCeiling, ...]
    computes: Tuple[ComputeCeiling, ...]
    base_freq_ghz: float = 2.1
    working_set_level: str = "DRAM"

    def __post_init__(self) -> None:
        ensure_positive(self.base_freq_ghz, "base_freq_ghz")
        if not self.bandwidths or not self.computes:
            raise ValueError("roofline needs at least one bandwidth and one compute ceiling")
        names = [b.name for b in self.bandwidths]
        if self.working_set_level not in names:
            raise ValueError(
                f"working_set_level {self.working_set_level!r} not among bandwidth "
                f"ceilings {names!r}"
            )

    # ------------------------------------------------------------------
    def bandwidth(self, level: str) -> BandwidthCeiling:
        """Look up a bandwidth ceiling by name."""
        for ceiling in self.bandwidths:
            if ceiling.name == level:
                return ceiling
        raise KeyError(f"no bandwidth ceiling named {level!r}")

    def compute(self, name: str) -> ComputeCeiling:
        """Look up a compute ceiling by name."""
        for ceiling in self.computes:
            if ceiling.name == name:
                return ceiling
        raise KeyError(f"no compute ceiling named {name!r}")

    # ------------------------------------------------------------------
    def attainable_gflops(self, intensity, compute_ceiling: str, freq_ghz=None):
        """Roofline-attainable GFLOPS at the given arithmetic intensity.

        ``min(intensity * BW, compute_peak)`` with both ceilings evaluated
        at the relative frequency ``freq_ghz / base_freq_ghz`` (defaults to
        base frequency).  Intensity 0 (pure memory traffic) attains 0
        GFLOPS by definition.
        """
        intensity = np.asarray(intensity, dtype=float)
        ratio = 1.0 if freq_ghz is None else np.asarray(freq_ghz, dtype=float) / self.base_freq_ghz
        bw = self.bandwidth(self.working_set_level).effective(ratio)
        peak = self.compute(compute_ceiling).effective(ratio)
        return np.minimum(intensity * bw, peak)

    def as_plot_series(self, compute_ceiling: str, intensities) -> Dict[str, np.ndarray]:
        """Data series for regenerating the paper's Fig. 3.

        Returns the attainable-GFLOPS envelope plus every individual
        ceiling evaluated over ``intensities``, keyed by ceiling name.
        """
        intensities = np.asarray(intensities, dtype=float)
        series: Dict[str, np.ndarray] = {
            "attainable": self.attainable_gflops(intensities, compute_ceiling)
        }
        for bwc in self.bandwidths:
            series[f"bw:{bwc.name}"] = intensities * bwc.bw_gbps
        for cc in self.computes:
            series[f"compute:{cc.name}"] = np.full_like(intensities, cc.gflops)
        return series


def _advisor_roofline() -> RooflineModel:
    """Single-core ceilings as printed on the paper's Fig. 3."""
    return RooflineModel(
        name="advisor-single-core",
        bandwidths=(
            BandwidthCeiling("L1", 314.65, freq_sensitivity=1.0),
            BandwidthCeiling("L2", 84.5, freq_sensitivity=1.0),
            BandwidthCeiling("L3", 35.18, freq_sensitivity=0.8),
            BandwidthCeiling("DRAM", 12.44, freq_sensitivity=0.2),
        ),
        computes=(
            ComputeCeiling("sp_vector_fma", 61.98),
            ComputeCeiling("sp_vector_add", 55.24),
            ComputeCeiling("dp_vector_fma", 38.49),
            ComputeCeiling("dp_vector_add", 19.25),
            ComputeCeiling("scalar_add", 7.3),
        ),
        base_freq_ghz=2.1,
        working_set_level="DRAM",
    )


def _node_roofline() -> RooflineModel:
    """Node-level ceilings used by the execution simulator.

    34 active benchmark cores per node (paper §V-A1: two cores reserved
    for monitoring) and a two-socket streaming DRAM bandwidth of
    ~110 GB/s.  The theoretical Broadwell peak is 16 DP FLOPs/cycle/core
    with 256-bit FMA, but the synthetic kernel interleaves streaming loads
    with its FMAs and sustains ~35 % of that issue rate (consistent with
    the paper's single-core Advisor roofline, whose measured DP vector FMA
    ceiling of 38.49 GFLOPS likewise sits far below the 2-port theoretical
    peak).  The effective DP ymm peak is therefore
    34 * 16 * 2.1 * 0.35 ~= 400 GFLOPS, putting the node ridge near
    3.6 FLOPs/byte — intensities of 4 and above are compute-bound and
    respond to frequency (and hence to power), while 2 and below are
    DRAM-bound.
    """
    cores = 34
    base = 2.1
    issue_efficiency = 0.35
    dp_fma_ymm = cores * 16 * base * issue_efficiency  # ~400 GFLOPS
    return RooflineModel(
        name="quartz-node",
        bandwidths=(BandwidthCeiling("DRAM", 110.0, freq_sensitivity=0.25),),
        computes=(
            ComputeCeiling("dp_fma_ymm", dp_fma_ymm),
            ComputeCeiling("dp_fma_xmm", dp_fma_ymm / 2.0),
            ComputeCeiling("sp_fma_ymm", dp_fma_ymm * 2.0),
            ComputeCeiling("sp_fma_xmm", dp_fma_ymm),
        ),
        base_freq_ghz=base,
        working_set_level="DRAM",
    )


#: Ceilings from the paper's Fig. 3 (Intel Advisor, single core).
ADVISOR_SINGLE_CORE_ROOFLINE: RooflineModel = _advisor_roofline()

#: Node-level ceilings driving the execution simulator.
NODE_LEVEL_ROOFLINE: RooflineModel = _node_roofline()
