"""Per-mix characterization bundle: the policies' complete input.

Every policy in the paper is a pure function of (a) the system power
budget and (b) characterization data from GEOPM reports: the observed
unconstrained power per host (monitor agent) and the performance-aware
needed power per host (power balancer).  :class:`MixCharacterization`
carries exactly those arrays, plus the per-job index structure, so the
policy layer depends on nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import ExecutionModel
from repro.telemetry import emit, timed
from repro.workload.job import HostLayout, WorkloadMix

__all__ = [
    "MixCharacterization",
    "characterize_mix",
    "characterize_mix_batch",
    "DEFAULT_HARVEST_FRACTION",
]

#: Fraction of the theoretical slack (observed power minus the power that
#: just preserves the critical path) the balancer actually harvests.
#: Calibrated against the paper's Fig. 5: e.g. at 8 FLOPs/byte with 75 %
#: waiting ranks at 3x imbalance, waiting nodes could theoretically drop
#: from ~220 W to the ~137 W floor, but the measured cell (191 W job mean,
#: i.e. ~181 W on waiting nodes) shows GEOPM's feedback loop stopping
#: roughly halfway — it cuts in bounded steps with a safety margin around
#: the critical path and holds where further cuts risk epoch-time noise.
DEFAULT_HARVEST_FRACTION = 0.5


@dataclass(frozen=True)
class MixCharacterization:
    """Characterization arrays for one mix on its allocated hosts.

    Attributes
    ----------
    mix_name:
        The characterized mix.
    job_boundaries:
        Host-block offsets per job (with final sentinel), as in
        :class:`~repro.workload.job.HostLayout`.
    monitor_power_w:
        Per-host mean power observed in the unconstrained monitor run
        (paper metric (a)).
    needed_power_w:
        Per-host steady-state power under the power balancer — the
        minimum power that preserves the job's critical path (metric (b)).
    needed_cap_w:
        ``needed_power_w`` clamped into the settable RAPL range: the cap a
        policy programs to grant exactly the needed power.
    min_cap_w / tdp_w:
        Node-level RAPL floor and ceiling, recorded so policies and budget
        derivation share one source of truth.
    """

    mix_name: str
    job_boundaries: np.ndarray
    monitor_power_w: np.ndarray
    needed_power_w: np.ndarray
    needed_cap_w: np.ndarray
    min_cap_w: float
    tdp_w: float

    def __post_init__(self) -> None:
        n = self.monitor_power_w.size
        if self.needed_power_w.size != n or self.needed_cap_w.size != n:
            raise ValueError("characterization arrays must share one host count")
        if int(self.job_boundaries[-1]) != n:
            raise ValueError("job_boundaries sentinel must equal host count")

    # ------------------------------------------------------------------
    @property
    def host_count(self) -> int:
        """Hosts across the mix."""
        return int(self.monitor_power_w.size)

    @property
    def job_count(self) -> int:
        """Jobs in the mix."""
        return int(self.job_boundaries.size - 1)

    def host_job_index(self) -> np.ndarray:
        """Job index per host (reconstructed from the boundaries)."""
        counts = np.diff(self.job_boundaries)
        return np.repeat(np.arange(self.job_count), counts)

    def job_slice(self, job: int) -> slice:
        """Host slice of one job's block."""
        if not 0 <= job < self.job_count:
            raise IndexError(f"job {job} out of range")
        return slice(int(self.job_boundaries[job]), int(self.job_boundaries[job + 1]))

    # --- per-job aggregates the policies use ---------------------------
    def job_max_monitor_power_w(self) -> np.ndarray:
        """Per job: the most power-hungry host's observed power.

        ``Precharacterized`` submits each job with exactly this cap, and
        the max budget of Table III provisions this much for every node.
        """
        return np.maximum.reduceat(self.monitor_power_w, self.job_boundaries[:-1])

    def job_total_needed_w(self) -> np.ndarray:
        """Per job: sum of needed power over its hosts."""
        return np.add.reduceat(self.needed_power_w, self.job_boundaries[:-1])

    def waste_w(self) -> np.ndarray:
        """Per host: observed-minus-needed power — the harvestable waste."""
        return np.maximum(self.monitor_power_w - self.needed_power_w, 0.0)


def _characterization_arrays(
    model: ExecutionModel, layout, eff: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Both characterization physics passes for one layout.

    Returns ``(monitor_power, theoretical)``: the unconstrained observed
    power per host (metric (a)) and the minimum power that preserves each
    job's critical path, clipped into the feasible band (the idealised
    metric (b) before harvest-fraction conservatism is applied).

    ``layout`` may be a :class:`~repro.workload.job.HostLayout` or a
    :class:`~repro.sim.batch.LayoutBatch`; every step broadcasts over
    leading scenario axes, so ``(S, hosts)`` layouts yield ``(S, hosts)``
    arrays bit-identical per scenario slice to the serial computation.
    """
    pm = model.power_model

    # --- metric (a): unconstrained observed power ----------------------
    tdp_caps = np.full(layout.kappa.shape, pm.tdp_w)
    freq_unc = model.frequencies(tdp_caps, layout, eff)
    t_unc = model.compute_time(freq_unc, layout)
    p_compute_unc = pm.power_at_freq(freq_unc, layout.kappa, eff)
    p_poll_unc = model.poll_power(tdp_caps, layout, eff)
    t_crit = np.maximum.reduceat(t_unc, layout.job_boundaries[:-1], axis=-1)
    t_crit_per_host = t_crit[..., layout.job_index]
    slack = np.maximum(t_crit_per_host - t_unc, 0.0)
    monitor_power = (p_compute_unc * t_unc + p_poll_unc * slack) / t_crit_per_host

    # --- metric (b): minimum power preserving the critical path --------
    needed_compute_power = model.required_power(layout, t_crit_per_host, eff)
    floor_caps = np.full(layout.kappa.shape, pm.min_cap_w)
    floor_freq = model.frequencies(floor_caps, layout, eff)
    floor_power = pm.power_at_freq(floor_freq, layout.kappa, eff)
    theoretical = np.clip(needed_compute_power, floor_power, monitor_power)
    return monitor_power, theoretical


def _apply_harvest(
    monitor_power: np.ndarray, theoretical: np.ndarray,
    harvest_fraction: float, pm,
) -> Tuple[np.ndarray, np.ndarray]:
    """Conservative harvest: ``(needed_power, needed_cap)`` for one fraction.

    The balancer recovers only a calibrated fraction of the
    observed-minus-theoretical slack (see :data:`DEFAULT_HARVEST_FRACTION`).
    """
    needed_power = monitor_power - harvest_fraction * (monitor_power - theoretical)
    return needed_power, pm.clamp_cap(needed_power)


@timed("characterization.characterize_mix_s")
def characterize_mix(
    mix: WorkloadMix,
    efficiencies: np.ndarray,
    model: Optional[ExecutionModel] = None,
    harvest_fraction: float = DEFAULT_HARVEST_FRACTION,
) -> MixCharacterization:
    """Run both characterizations for a mix (analytic steady states).

    The monitor characterization is the deterministic unconstrained run:
    every host at TDP, mean power read off the steady state.  The balancer
    characterization computes, per job, the critical-path iteration time at
    unconstrained speed and then each host's minimum power to meet it (the
    converged balancer operating point; validated against the feedback
    loop in the test suite).

    ``harvest_fraction`` models the balancer's conservatism (see
    :data:`DEFAULT_HARVEST_FRACTION`): the recorded needed power is the
    observed power minus that fraction of the theoretical slack.  Pass 1.0
    for an idealised balancer that cuts all the way to the critical path.

    Needed power is bounded above by the observed power (a host never
    *needs* more than it draws unconstrained) and below by what the node
    consumes at the RAPL floor.

    When a :func:`~repro.parallel.cache.active_cache` is installed, the
    characterization is memoized under a content hash of (mix spec,
    efficiencies, model parameters, harvest fraction); repeated grid
    cells and online re-planning rounds then skip the physics entirely.
    """
    if not 0.0 < harvest_fraction <= 1.0:
        raise ValueError("harvest_fraction must be in (0, 1]")
    model = model if model is not None else ExecutionModel()
    from repro.parallel.cache import active_cache

    cache = active_cache()
    cache_key = None
    if cache is not None:
        cache_key = cache.key(
            "char", mix, np.asarray(efficiencies, dtype=float), model,
            float(harvest_fraction),
        )
        payload = cache.get(cache_key)
        if payload is not None:
            from repro.io.serialize import characterization_from_dict

            return characterization_from_dict(payload)
    layout: HostLayout = mix.layout()
    eff = np.asarray(efficiencies, dtype=float)
    if eff.shape != (layout.host_count,):
        raise ValueError(
            f"efficiencies must have shape ({layout.host_count},), got {eff.shape}"
        )
    pm = model.power_model
    monitor_power, theoretical = _characterization_arrays(model, layout, eff)
    needed_power, needed_cap = _apply_harvest(
        monitor_power, theoretical, harvest_fraction, pm
    )

    emit(
        "characterization.mix", "mix_characterized",
        mix=mix.name, hosts=layout.host_count,
        jobs=int(layout.job_boundaries.size - 1),
        mean_monitor_w=float(np.mean(monitor_power)),
        mean_needed_w=float(np.mean(needed_power)),
        harvest_fraction=harvest_fraction,
    )
    char = MixCharacterization(
        mix_name=mix.name,
        job_boundaries=layout.job_boundaries.copy(),
        monitor_power_w=monitor_power,
        needed_power_w=needed_power,
        needed_cap_w=needed_cap,
        min_cap_w=pm.min_cap_w,
        tdp_w=pm.tdp_w,
    )
    if cache is not None:
        from repro.io.serialize import characterization_to_dict

        cache.put(cache_key, characterization_to_dict(char))
    return char


@timed("characterization.characterize_mix_batch_s")
def characterize_mix_batch(
    mix: WorkloadMix,
    efficiencies: np.ndarray,
    harvest_fractions: Sequence[float],
    model: Optional[ExecutionModel] = None,
) -> List[MixCharacterization]:
    """Characterize one mix at a ladder of harvest fractions in one pass.

    The two physics passes (monitor observation and the critical-path
    minimum) do not depend on the harvest fraction, so a fraction ladder
    needs them exactly once; each rung then applies its conservatism
    factor to the shared arrays.  Rung ``i`` is bit-identical to
    ``characterize_mix(mix, efficiencies, model, harvest_fractions[i])``.

    Per-rung cache entries are looked up and stored under the same keys
    the serial path uses, so batched and serial characterizations share
    the content-addressed cache.
    """
    fractions = [float(f) for f in harvest_fractions]
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("harvest_fraction must be in (0, 1]")
    model = model if model is not None else ExecutionModel()
    layout: HostLayout = mix.layout()
    eff = np.asarray(efficiencies, dtype=float)
    if eff.shape != (layout.host_count,):
        raise ValueError(
            f"efficiencies must have shape ({layout.host_count},), got {eff.shape}"
        )
    from repro.parallel.cache import active_cache

    cache = active_cache()
    results: List[Optional[MixCharacterization]] = [None] * len(fractions)
    keys: List[Optional[str]] = [None] * len(fractions)
    misses = list(range(len(fractions)))
    if cache is not None:
        from repro.io.serialize import characterization_from_dict

        misses = []
        for i, fraction in enumerate(fractions):
            keys[i] = cache.key("char", mix, eff, model, fraction)
            payload = cache.get(keys[i])
            if payload is not None:
                results[i] = characterization_from_dict(payload)
            else:
                misses.append(i)

    if misses:
        pm = model.power_model
        monitor_power, theoretical = _characterization_arrays(model, layout, eff)
        for i in misses:
            needed_power, needed_cap = _apply_harvest(
                monitor_power, theoretical, fractions[i], pm
            )
            results[i] = MixCharacterization(
                mix_name=mix.name,
                job_boundaries=layout.job_boundaries.copy(),
                monitor_power_w=monitor_power.copy(),
                needed_power_w=needed_power,
                needed_cap_w=needed_cap,
                min_cap_w=pm.min_cap_w,
                tdp_w=pm.tdp_w,
            )
        if cache is not None:
            from repro.io.serialize import characterization_to_dict

            for i in misses:
                cache.put(keys[i], characterization_to_dict(results[i]))
    emit(
        "characterization.mix", "mix_batch_characterized",
        mix=mix.name, hosts=layout.host_count,
        rungs=len(fractions), cache_hits=len(fractions) - len(misses),
    )
    return results  # type: ignore[return-value]
