"""Per-socket CPU specification and frequency/power model.

The paper's experiments run on LLNL Quartz: dual-socket Intel Xeon E5-2695
nodes with a 120 W thermal design power (TDP) per socket, a 68 W minimum
RAPL limit, and a 2.1 GHz base frequency (paper Table I).  Policies interact
with the CPU exclusively through RAPL power caps, so the only hardware
behaviour that matters to the reproduction is the mapping between a power
cap, the activity of the running workload, and the achieved frequency.

Model
-----
Socket power is an uncore constant plus an activity-scaled polynomial in
frequency::

    P(f) = P_uncore + kappa * eff * (c3 * f**3 + c1 * f)

* ``f`` — achieved all-core frequency in GHz.
* ``kappa`` — workload *activity factor* in (0, 1]; how hard the core
  pipelines, vector units, and caches are being driven.  Derived from the
  kernel configuration by :mod:`repro.workload.kernel`.
* ``eff`` — per-socket manufacturing variation multiplier (> 1 means the
  part burns more power for the same frequency; see
  :mod:`repro.hardware.variation`).

The cubic term models dynamic power (voltage scales roughly with frequency
in the DVFS band, so ``P_dyn ~ C * V^2 * f ~ f^3``) and the linear term
models leakage plus non-scaling core power.  The inverse map — achieved
frequency under a RAPL cap — is the single real root of the depressed cubic
``c3*f^3 + c1*f = budget``, computed in closed form (Cardano) so the
simulator can invert millions of host-iterations without iteration.

Calibration
-----------
Coefficients are calibrated so that, for the most power-hungry kernel
configuration (``kappa = 1``):

* uncapped, the socket reaches its 2.2 GHz all-core turbo at ~116 W,
  i.e. ~232 W per node — the hottest cell of the paper's Fig. 4 heatmap;
* under a 70 W socket cap the achieved frequency lands in the
  1.6–1.9 GHz band of the paper's Fig. 6 node survey, with the exact value
  set by the node's variation multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.units import ensure_positive

__all__ = ["CpuSpec", "SocketPowerModel", "QUARTZ_CPU"]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of one CPU socket (paper Table I).

    Attributes
    ----------
    model:
        Marketing name, for reports.
    cores:
        Physical cores per socket.
    base_freq_ghz:
        Guaranteed all-core base frequency.
    turbo_freq_ghz:
        All-core turbo ceiling; the socket never clocks above this even
        with surplus power budget.
    min_freq_ghz:
        Lowest DVFS operating point; a cap below the power drawn at this
        frequency cannot slow the socket further (it would throttle via
        duty cycling on real hardware, which the paper's policies avoid by
        clamping caps to the RAPL minimum).
    tdp_w:
        Thermal design power; the default RAPL PL1 value.
    min_rapl_w:
        Lowest settable RAPL package limit (68 W on Quartz).
    uncore_power_w:
        Frequency-independent package power (memory controller, LLC, IO).
    dynamic_coeff:
        ``c3`` in the power polynomial (W / GHz^3).
    static_coeff:
        ``c1`` in the power polynomial (W / GHz).
    fma_width_flops:
        Peak double-precision FLOPs per cycle per core with 256-bit FMA
        (2 FMA ports x 4 doubles x 2 ops on Broadwell).
    """

    model: str = "Intel Xeon E5-2695 v4"
    cores: int = 18
    base_freq_ghz: float = 2.1
    turbo_freq_ghz: float = 2.2
    min_freq_ghz: float = 1.0
    tdp_w: float = 120.0
    min_rapl_w: float = 68.0
    uncore_power_w: float = 10.0
    dynamic_coeff: float = 7.816
    static_coeff: float = 10.35
    fma_width_flops: int = 16

    def __post_init__(self) -> None:
        ensure_positive(self.cores, "cores")
        ensure_positive(self.base_freq_ghz, "base_freq_ghz")
        ensure_positive(self.turbo_freq_ghz, "turbo_freq_ghz")
        ensure_positive(self.min_freq_ghz, "min_freq_ghz")
        ensure_positive(self.tdp_w, "tdp_w")
        ensure_positive(self.min_rapl_w, "min_rapl_w")
        ensure_positive(self.dynamic_coeff, "dynamic_coeff")
        ensure_positive(self.static_coeff, "static_coeff")
        if self.min_freq_ghz >= self.turbo_freq_ghz:
            raise ValueError("min_freq_ghz must be below turbo_freq_ghz")
        if self.min_rapl_w >= self.tdp_w:
            raise ValueError("min_rapl_w must be below tdp_w")
        if self.uncore_power_w >= self.min_rapl_w:
            raise ValueError("uncore power must fit under the RAPL floor")


#: The socket used throughout the paper's evaluation (Quartz, Table I).
QUARTZ_CPU = CpuSpec()


@dataclass(frozen=True)
class SocketPowerModel:
    """Bidirectional frequency <-> power map for one socket model.

    All methods are vectorised: scalars broadcast with arrays, so the
    simulator can evaluate a whole cluster in one call.

    Parameters
    ----------
    spec:
        The socket being modelled.
    """

    spec: CpuSpec = field(default_factory=CpuSpec)

    def __post_init__(self) -> None:
        p = self.spec.static_coeff / self.spec.dynamic_coeff
        object.__setattr__(self, "_p3_over_27", p**3 / 27.0)

    # ------------------------------------------------------------------
    # forward map: frequency -> power
    # ------------------------------------------------------------------
    def power_at(self, freq_ghz, kappa, efficiency=1.0):
        """Package power (W) at ``freq_ghz`` for activity ``kappa``.

        ``efficiency`` is the variation multiplier applied to the core
        (frequency-dependent) term only; uncore power does not vary
        meaningfully between parts.
        """
        f = np.asarray(freq_ghz, dtype=float)
        k = np.asarray(kappa, dtype=float)
        e = np.asarray(efficiency, dtype=float)
        return self.power_at_load(f, k * e)

    def power_at_load(self, freq_ghz, load):
        """:meth:`power_at` for a premultiplied ``load = kappa * efficiency``.

        Plain ufuncs on float inputs, no coercion: the form the
        simulator's bound physics kernel
        (:meth:`repro.sim.engine.ExecutionModel.bind`) uses with the load
        computed once.
        """
        core = self.spec.dynamic_coeff * freq_ghz**3 + self.spec.static_coeff * freq_ghz
        return self.spec.uncore_power_w + load * core

    # ------------------------------------------------------------------
    # inverse map: power budget -> frequency
    # ------------------------------------------------------------------
    def freq_at_power(self, power_w, kappa, efficiency=1.0):
        """Achieved frequency (GHz) under a package power cap.

        Solves ``c3 f^3 + c1 f = B`` for the core budget
        ``B = (cap - uncore) / (kappa * efficiency)`` via Cardano's formula
        for the depressed cubic (single real root since both coefficients
        are positive), then clamps to the DVFS band
        ``[min_freq_ghz, turbo_freq_ghz]``.

        A cap at or below uncore power yields the minimum frequency — the
        socket cannot trade uncore power for core frequency.
        """
        p = np.asarray(power_w, dtype=float)
        k = np.asarray(kappa, dtype=float)
        e = np.asarray(efficiency, dtype=float)
        return self.freq_at_load(p, k * e)

    def freq_at_load(self, power_w, load):
        """:meth:`freq_at_power` for a premultiplied ``load = kappa * efficiency``.

        Plain ufuncs on float inputs, no coercion (see
        :meth:`power_at_load`).
        """
        budget = (power_w - self.spec.uncore_power_w) / load
        budget = np.maximum(budget, 0.0)
        f = self._solve_core_cubic(budget)
        return np.minimum(
            np.maximum(f, self.spec.min_freq_ghz), self.spec.turbo_freq_ghz
        )

    def _solve_core_cubic(self, budget):
        """Real root of ``c3 f^3 + c1 f - budget = 0`` (vectorised Cardano).

        With ``p = c1/c3 > 0`` and ``q = -budget/c3`` the discriminant
        ``q^2/4 + p^3/27`` is always positive, so there is exactly one real
        root and ``np.cbrt`` handles the negative radicand branch exactly.
        ``p^3/27`` depends on the spec alone and is computed once per model.
        """
        q = -np.asarray(budget, dtype=float) / self.spec.dynamic_coeff
        disc = np.sqrt(q**2 / 4.0 + self._p3_over_27)
        half = -q / 2.0
        return np.cbrt(half + disc) + np.cbrt(half - disc)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def uncapped_power(self, kappa, efficiency=1.0):
        """Steady-state power with no RAPL cap (runs at turbo under TDP).

        The socket clocks to the lower of its turbo ceiling and the
        frequency the TDP allows, then draws the corresponding power.
        """
        f = self.freq_at_power(self.spec.tdp_w, kappa, efficiency)
        return self.power_at(f, kappa, efficiency)

    def floor_power(self, kappa, efficiency=1.0):
        """Power drawn at the RAPL floor for the given activity.

        This is the lowest steady-state power a policy can force for a
        socket running this workload: either the floor cap itself (if the
        workload can use it all) or the power at minimum frequency.
        """
        f = self.freq_at_power(self.spec.min_rapl_w, kappa, efficiency)
        return np.minimum(
            self.power_at(f, kappa, efficiency),
            np.asarray(self.spec.min_rapl_w, dtype=float),
        )
