"""The simulator's physics: caps, frequencies, phase times, and inverses.

:class:`ExecutionModel` binds the node power model (cap -> frequency ->
power) to the roofline throughput model (frequency -> phase time for a work
quantum) and exposes the vectorised forward and inverse maps everything
else is built on:

forward
    ``bind(layout, efficiencies)(limits)`` — a :class:`BoundEpoch` kernel
    for one host set; each call clamps per-host limits into the RAPL
    range and returns the achieved frequency, the compute-phase time, and
    the power drawn while computing / polling.  The compute and poll
    operating points come from one pass of the power model over both
    loads, stacked at bind time.  Every layer (runtime epochs, the
    stacked executor and its fault plan, characterization, the
    experiments) evaluates caps through it.

inverse
    ``required_frequency(layout, target_time)`` — the lowest frequency at
    which each host still finishes its work inside ``target_time``; and
    ``required_power`` — the node power that frequency costs.  This is the
    analytic core of the GEOPM power balancer (paper §IV-B): power can be
    removed from a host exactly down to the point where its compute phase
    stretches to the job's critical-path time.

Batch dimensions
----------------
Every map is a pure ufunc chain and broadcasts over *leading* axes: pass
caps of shape ``(S, hosts)`` (or a layout-like object whose per-host
arrays are ``(S, hosts)``, see :mod:`repro.sim.batch`) and every map
returns ``(S, hosts)`` — ``S`` independent scenarios evaluated in one
pass.  Per-job reductions use ``axis=-1`` so the host axis is always the
last one.  The row core of :mod:`repro.sim.batch` builds on exactly this
property: rows on one shared flat layout bind it with ``(S, hosts)``
efficiencies and caps, and each element equals its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.node import NodePowerModel
from repro.hardware.roofline import NODE_LEVEL_ROOFLINE, RooflineModel
from repro.workload.job import HostLayout

__all__ = ["BoundEpoch", "ExecutionModel"]


@dataclass(frozen=True)
class ExecutionModel:
    """Physics bundle: power model + roofline, vectorised over hosts."""

    power_model: NodePowerModel = field(default_factory=NodePowerModel)
    roofline: RooflineModel = NODE_LEVEL_ROOFLINE

    # ------------------------------------------------------------------
    # roofline plumbing
    # ------------------------------------------------------------------
    def _ceiling_gflops(self, layout: HostLayout) -> np.ndarray:
        """Base-frequency compute ceiling per host (GFLOPS)."""
        base = np.array(
            [self.roofline.compute(name).gflops for name in layout.ceiling_names]
        )
        return base[layout.compute_ceiling_index]

    def _bandwidth_params(self):
        ceiling = self.roofline.bandwidth(self.roofline.working_set_level)
        return ceiling.bw_gbps, ceiling.freq_sensitivity

    # ------------------------------------------------------------------
    # forward map
    # ------------------------------------------------------------------
    def bind(self, layout: HostLayout, efficiencies: np.ndarray) -> "BoundEpoch":
        """The forward map for one host set, its per-run constants hoisted.

        Returns a :class:`BoundEpoch` whose call evaluates the caps,
        frequencies, compute-phase times and compute / poll powers of
        ``(layout, efficiencies)`` under one set of node limits, without
        rebuilding the layout-dependent constants each time.  This is the
        only forward map: callers that evaluate the same hosts repeatedly
        (the runtime controllers once per control epoch, the stacked
        executor before and after its fault overrides) bind once.
        """
        return BoundEpoch(self, layout, efficiencies)

    # ------------------------------------------------------------------
    # inverse map (the balancer's primitive)
    # ------------------------------------------------------------------
    def required_frequency(self, layout: HostLayout, target_time_s) -> np.ndarray:
        """Lowest frequency at which each host finishes within the target.

        Inverts both roofline requirements: bandwidth
        ``traffic / bw(f) <= t`` and compute ``gflop / peak(f) <= t``;
        the required frequency is the larger of the two, clamped into the
        DVFS band.  When the bandwidth requirement is met even at a
        freq-ratio of 0 (the frequency-insensitive bandwidth fraction
        already suffices) it imposes no constraint.
        """
        t = np.asarray(target_time_s, dtype=float)
        if np.any(t <= 0):
            raise ValueError("target_time_s must be positive")
        bw0, sens = self._bandwidth_params()
        base = self.roofline.base_freq_ghz

        peak0 = self._ceiling_gflops(layout)
        ratio_cpu = layout.gflop / (peak0 * t)

        bw_needed = layout.traffic_gb / t
        if sens > 0:
            ratio_mem = (bw_needed / bw0 - (1.0 - sens)) / sens
        else:
            ratio_mem = np.zeros_like(bw_needed)
        ratio = np.maximum.reduce([ratio_cpu, ratio_mem, np.zeros_like(ratio_cpu)])
        freq = ratio * base
        return np.clip(freq, self.power_model.spec.min_freq_ghz,
                       self.power_model.spec.turbo_freq_ghz)

    def required_power(self, layout: HostLayout, target_time_s,
                       efficiencies) -> np.ndarray:
        """Node power needed for each host to finish within the target (W).

        The balancer's "needed power": power at the required frequency,
        floored at what the node draws at minimum frequency (a cap cannot
        push consumption below that) and at the RAPL floor's consumption.
        """
        f = self.required_frequency(layout, target_time_s)
        return self.power_model.power_at_freq(f, layout.kappa, efficiencies)


def _phase_time(ratio, bw0, sens, ceiling_gflops, traffic_gb, gflop, has_flops):
    """Roofline compute-phase time at frequency ratio ``ratio`` (s).

    The one copy of the formula, evaluated by :class:`BoundEpoch`; the
    inverse :meth:`ExecutionModel.required_frequency` solves it for
    ``ratio``.
    """
    bw = bw0 * ((1.0 - sens) + sens * ratio)
    peak = ceiling_gflops * ratio
    t_mem = traffic_gb / bw
    t_cpu = np.where(has_flops, gflop / peak, 0.0)
    return np.maximum(t_mem, t_cpu)


class BoundEpoch:
    """One host set's epoch physics, built by :meth:`ExecutionModel.bind`.

    Binding computes the per-host-set constants once: the compute and
    poll loads ``kappa * eff`` and ``poll_kappa * eff``, stacked as one
    ``(2, ...)`` array, the per-host compute ceiling, the bandwidth
    parameters and the ``gflop > 0`` mask.  A call then runs plain
    elementwise ufuncs only (the power model's ``*_load`` forms) in one
    pass over both loads: row 0 of the result is the compute operating
    point, which feeds the phase time, and row 1 the poll point.  Each
    element depends on its own host's cap and load alone, so it equals
    a call on that load by itself.  Broadcasts over leading axes like the
    rest of the engine: a stacked ``(S, hosts)`` layout and efficiencies
    take ``(S, hosts)`` limits, and a flat ``(hosts,)`` one takes
    ``(S, hosts)`` limits with row ``s`` equal to a ``(hosts,)`` call on
    ``limits[s]`` (the loads gain axes after their row axis to reach the
    caps' rank).  ``tdp_w`` is the node TDP the limits clamp to from
    above.

    The outputs are a pure function of the clamped caps, so the kernel
    keeps the last call's results: when the caps repeat (a monitor, a
    governor, or any loop holding its limits) it returns copies instead
    of recomputing.  Every call hands out fresh arrays either way.
    """

    __slots__ = ("_power", "_min_cap_w", "tdp_w", "_base_ghz", "_loads",
                 "_roofline", "_last")

    def __init__(self, model: ExecutionModel, layout: HostLayout,
                 efficiencies: np.ndarray) -> None:
        eff = np.asarray(efficiencies, dtype=float)
        power = model.power_model
        self._power = power
        self._min_cap_w = power.min_cap_w
        self.tdp_w = power.tdp_w
        self._base_ghz = model.roofline.base_freq_ghz
        self._loads = np.stack([layout.kappa * eff, layout.poll_kappa * eff])
        bw0, sens = model._bandwidth_params()
        self._roofline = (bw0, sens, model._ceiling_gflops(layout),
                          layout.traffic_gb, layout.gflop, layout.gflop > 0)
        self._last = None

    def __call__(self, limits_w: np.ndarray):
        """Physics of one epoch under node limits ``limits_w`` (W, float).

        Returns ``(caps_w, freq_ghz, compute_s, compute_power_w,
        poll_power_w)``: the limits clamped into the settable range, the
        achieved compute frequency, the noise-free compute-phase time, and
        the node power while computing and while polling at the barrier.
        """
        power = self._power
        caps = np.minimum(np.maximum(limits_w, self._min_cap_w), self.tdp_w)
        last = self._last
        if (last is not None and caps.shape == last[0].shape
                and (caps == last[0]).all()):
            # The physics is a pure function of the caps: an agent holding
            # its limits gets the previous epoch's values, as fresh arrays.
            return (caps, *[a.copy() for a in last[1:]])
        loads = self._loads
        if caps.ndim >= loads.ndim:
            # (S, hosts) caps on a flat layout: both loads broadcast over
            # the caps' rows.
            loads = loads.reshape(
                loads.shape[:1] + (1,) * (caps.ndim - loads.ndim + 1)
                + loads.shape[1:]
            )
        freq = power.freq_at_cap_load(caps, loads)
        p = power.power_at_freq_load(freq, loads)
        t = _phase_time(freq[0] / self._base_ghz, *self._roofline)
        out = (caps, freq[0], t, p[0], p[1])
        # Lists, not ``tuple(<generator>)``: that form strands one tuple
        # per call on CPython's free list, so a run's memory would grow
        # with its epoch count.
        self._last = tuple([a.copy() for a in out])
        return out
