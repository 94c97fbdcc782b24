"""The simulator's physics: caps, frequencies, phase times, and inverses.

:class:`ExecutionModel` binds the node power model (cap -> frequency ->
power) to the roofline throughput model (frequency -> phase time for a work
quantum) and exposes the vectorised forward and inverse maps everything
else is built on:

forward
    ``compute_time(caps, layout)`` — per-host compute-phase time under
    per-host caps, and the power drawn while computing / polling.

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
arrays are ``(S, hosts)``, see :mod:`repro.sim.batch`) and each method
returns ``(S, hosts)`` — ``S`` independent scenarios evaluated in one
pass.  Per-job reductions use ``axis=-1`` so the host axis is always the
last one.  :func:`repro.sim.batch.simulate_cap_batch` builds on exactly
this property.
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
    def frequencies(self, caps_w: np.ndarray, layout: HostLayout,
                    efficiencies: np.ndarray) -> np.ndarray:
        """Achieved compute-phase frequency per host under node caps."""
        return self.power_model.freq_at_cap(caps_w, layout.kappa, efficiencies)

    def compute_time(self, freq_ghz: np.ndarray, layout: HostLayout) -> np.ndarray:
        """Compute-phase time per host at the given frequencies (s).

        The phase must both stream its memory traffic and retire its FLOPs;
        the time is the larger requirement, with bandwidth and compute
        ceilings scaled to the host's frequency.
        """
        ratio = np.asarray(freq_ghz, dtype=float) / self.roofline.base_freq_ghz
        bw0, sens = self._bandwidth_params()
        with np.errstate(divide="ignore"):
            return _phase_time(
                ratio, bw0, sens, self._ceiling_gflops(layout),
                layout.traffic_gb, layout.gflop, layout.gflop > 0,
            )

    def compute_power(self, caps_w: np.ndarray, layout: HostLayout,
                      efficiencies: np.ndarray) -> np.ndarray:
        """Node power drawn during the compute phase under node caps (W)."""
        f = self.frequencies(caps_w, layout, efficiencies)
        return self.power_model.power_at_freq(f, layout.kappa, efficiencies)

    def poll_power(self, caps_w: np.ndarray, layout: HostLayout,
                   efficiencies: np.ndarray) -> np.ndarray:
        """Node power drawn while busy-polling at the barrier (W).

        Polling runs the spin loop as fast as the cap allows at the poll
        activity factor; with generous caps this is turbo-limited and
        lands a little below compute power.
        """
        f = self.power_model.freq_at_cap(caps_w, layout.poll_kappa, efficiencies)
        return self.power_model.power_at_freq(f, layout.poll_kappa, efficiencies)

    def bind(self, layout: HostLayout, efficiencies: np.ndarray) -> "BoundEpoch":
        """The forward map for one host set, its per-run constants hoisted.

        Returns a :class:`BoundEpoch` whose call evaluates, under one set
        of node limits, exactly what :meth:`frequencies`,
        :meth:`compute_time`, :meth:`compute_power` and
        :meth:`poll_power` return for ``(layout, efficiencies)`` — bit for
        bit — without rebuilding the layout-dependent constants each time.
        The runtime controllers evaluate the same hosts once per control
        epoch, so they bind once per run (per active set, batched).
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

    def job_critical_time(self, caps_w: np.ndarray, layout: HostLayout,
                          efficiencies: np.ndarray) -> np.ndarray:
        """Noise-free per-job iteration time (segmented max over hosts).

        Broadcasts over leading scenario axes: ``(S, hosts)`` caps yield
        ``(S, jobs)`` critical times.
        """
        f = self.frequencies(caps_w, layout, efficiencies)
        t = self.compute_time(f, layout)
        return np.maximum.reduceat(t, layout.job_boundaries[:-1], axis=-1)


def _phase_time(ratio, bw0, sens, ceiling_gflops, traffic_gb, gflop, has_flops):
    """Roofline compute-phase time at frequency ratio ``ratio`` (s).

    The one copy of the formula behind :meth:`ExecutionModel.compute_time`
    and :class:`BoundEpoch`.
    """
    bw = bw0 * ((1.0 - sens) + sens * ratio)
    peak = ceiling_gflops * ratio
    t_mem = traffic_gb / bw
    t_cpu = np.where(has_flops, gflop / peak, 0.0)
    return np.maximum(t_mem, t_cpu)


class BoundEpoch:
    """One host set's epoch physics, built by :meth:`ExecutionModel.bind`.

    Binding computes once what the unbound methods rebuild on every call:
    the loads ``kappa * eff`` and ``poll_kappa * eff``, the per-host
    compute ceiling, the bandwidth parameters and the ``gflop > 0`` mask.
    A call then runs plain ufuncs only (the power model's ``*_load``
    forms), with the same operations in the same order as the unbound
    methods, so every element is bit-identical to them.  Broadcasts over
    leading axes like the rest of the engine: a stacked ``(S, hosts)``
    layout and efficiencies take ``(S, hosts)`` limits.

    The outputs are a pure function of the clamped caps, so the kernel
    keeps the last call's results: when the caps repeat (a monitor, a
    governor, or any loop holding its limits) it returns copies instead
    of recomputing.  Every call hands out fresh arrays either way.
    """

    __slots__ = ("_power", "_min_cap_w", "_tdp_w", "_base_ghz", "_load",
                 "_poll_load", "_roofline", "_last")

    def __init__(self, model: ExecutionModel, layout: HostLayout,
                 efficiencies: np.ndarray) -> None:
        eff = np.asarray(efficiencies, dtype=float)
        power = model.power_model
        self._power = power
        self._min_cap_w = power.min_cap_w
        self._tdp_w = power.tdp_w
        self._base_ghz = model.roofline.base_freq_ghz
        self._load = layout.kappa * eff
        self._poll_load = layout.poll_kappa * eff
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
        caps = np.minimum(np.maximum(limits_w, self._min_cap_w), self._tdp_w)
        last = self._last
        if (last is not None and caps.shape == last[0].shape
                and (caps == last[0]).all()):
            # The physics is a pure function of the caps: an agent holding
            # its limits gets the previous epoch's values, as fresh arrays.
            return (caps,) + tuple(a.copy() for a in last[1:])
        freq = power.freq_at_cap_load(caps, self._load)
        t = _phase_time(freq / self._base_ghz, *self._roofline)
        p_compute = power.power_at_freq_load(freq, self._load)
        poll_freq = power.freq_at_cap_load(caps, self._poll_load)
        p_poll = power.power_at_freq_load(poll_freq, self._poll_load)
        out = (caps, freq, t, p_compute, p_poll)
        self._last = tuple(a.copy() for a in out)
        return out
