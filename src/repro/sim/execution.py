"""The bulk-synchronous execution loop, vectorised over hosts x iterations.

Each iteration of the synthetic kernel proceeds as in the paper's Fig. 2:
every host runs its compute phase, the job's iteration time is the maximum
over its hosts (the critical path), and early finishers busy-poll at the
barrier until the iteration ends.  Energy is compute power over the compute
phase plus poll power over the slack.  The slack is never materialised per
host-iteration: a host's total slack is its job's elapsed time minus its
own compute time, and an iteration's energy is the compute phases at
``compute - poll`` power plus each job's whole iteration at the summed poll
power of its hosts.

Noise model: compute-phase times receive i.i.d. multiplicative lognormal
noise per host-iteration (OS jitter, DRAM refresh, cache state), which is
what gives repeated iterations the spread behind the paper's 95 %
confidence intervals.  Work amounts are deterministic — noise stretches
time, not FLOPs.  The draw is ``exp(sigma * z)``: each scenario fills its
slab with standard normals from its own seed's stream, then the scale and
``exp`` run in place over the whole tensor.  It consumes the stream exactly
as ``Generator.lognormal`` does, and NumPy's vectorised ``exp`` may differ
from libm's by one ulp.

The engine body (:func:`_execute_scenarios`) carries a leading *scenario*
axis: it evaluates an ``(S, hosts)`` cap matrix as ``S`` independent
executions in one pass over one ``(S, iterations, hosts)`` time tensor.
Every entry point reaches it through one row core,
:func:`repro.sim.batch._run_rows`, which owns the stacking, the span
and the run counter; :func:`simulate_mix` is its one-row call.
Serial and batched results therefore share one implementation and are
bit-identical by construction — the property pinned by
``tests/property/test_batch_properties.py``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.sim.engine import BoundEpoch, ExecutionModel
from repro.sim.results import MixRunResult
from repro.telemetry import enabled, get_registry, span
from repro.units import ensure_non_negative
from repro.workload.job import WorkloadMix

if TYPE_CHECKING:  # imported lazily at runtime (repro.faults -> repro.core
    # -> repro.sim would otherwise be a module-level import cycle)
    from repro.faults.schedule import FaultSchedule

__all__ = ["SimulationOptions", "DEFAULT_OPTIONS", "simulate_mix"]


@dataclass(frozen=True)
class SimulationOptions:
    """Knobs of the execution simulation.

    Attributes
    ----------
    noise_std:
        Standard deviation of the lognormal compute-time noise (relative).
        0.008 gives the ~1 % iteration-to-iteration spread typical of a
        dedicated HPC partition.
    barrier_overhead_s:
        Fixed per-iteration barrier cost added to every job's iteration
        time (tree barrier latency at ~100 nodes).
    seed:
        RNG seed, a non-negative integer (NumPy integer scalars too);
        identical seeds reproduce identical runs bit-for-bit.
    fault_schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule` injected
        into the execution (run-relative clock).  The engine applies the
        actuator faults (``CAP_STUCK`` / ``CAP_ERROR`` override the
        programmed caps) and ``NOISE_BURST`` windows (compute-noise sigma
        raised over the iterations a burst covers, mapped through each
        scenario's nominal iteration length).  ``None`` or an *empty*
        schedule leaves the execution path untouched — fault-free runs
        are bit-identical to pre-fault-subsystem runs by construction.
    """

    noise_std: float = 0.008
    barrier_overhead_s: float = 5.0e-4
    seed: int = 0
    fault_schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        ensure_non_negative(self.noise_std, "noise_std")
        ensure_non_negative(self.barrier_overhead_s, "barrier_overhead_s")
        # None would draw OS entropy: identical options must reproduce.
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise TypeError(
                f"seed must be an integer, got {type(self.seed).__name__}"
            ) from None
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")


#: Shared default options.  The dataclass is frozen, so one instance can
#: safely serve every ``options=None`` call — constructing (and
#: re-validating) fresh defaults per simulation was measurable on sweep
#: hot paths.  Never use this as a *def-line* default (see the
#: mutable-default regression test); functions take ``options=None`` and
#: substitute this in the body.
DEFAULT_OPTIONS = SimulationOptions()


@dataclass(frozen=True)
class _ScenarioTensors:
    """Stacked outputs of the batched engine core (leading axis = S)."""

    job_iter_times: np.ndarray      # (S, iterations, jobs)
    iteration_energy: np.ndarray    # (S, iterations)
    host_energy: np.ndarray         # (S, hosts)
    host_mean_power: np.ndarray     # (S, hosts)
    total_gflop: np.ndarray         # (S,)

    def result(self, row: int, mix: WorkloadMix, policy_name: str,
               budget_w: float) -> MixRunResult:
        """Scenario ``row`` as the :class:`MixRunResult` of ``mix`` (the
        mix whose layout it ran), sharing this object's arrays."""
        return MixRunResult(
            mix_name=mix.name,
            policy_name=policy_name,
            budget_w=float(budget_w),
            job_names=mix.job_names,
            iteration_times_s=self.job_iter_times[row],
            iteration_energy_j=self.iteration_energy[row],
            host_energy_j=self.host_energy[row],
            host_mean_power_w=self.host_mean_power[row],
            host_job_index=mix.layout().job_index,
            total_gflop=float(self.total_gflop[row]),
        )


def _engine_fault_plan(
    schedule: FaultSchedule,
    caps: np.ndarray,
    physics: BoundEpoch,
    n_iter: int,
    noise_std: float,
    barrier_overhead_s: float,
):
    """Translate a schedule into static cap overrides + per-iteration sigmas.

    The engine evaluates static-cap runs, so time-varying faults are
    mapped through each scenario's *nominal* clock: iteration ``i`` of
    scenario ``s`` covers ``[i * T_s, (i+1) * T_s)`` where ``T_s`` is the
    deterministic (pre-fault, noise-free) critical-path iteration time,
    evaluated by the run's bound kernel ``physics`` on the programmed caps.
    Actuator faults whose window overlaps the run override the affected
    caps for the whole run (a static-cap run cannot half-obey a write);
    noise bursts raise the lognormal sigma on exactly the iterations
    their window covers.

    Returns ``(caps_after_overrides, sigma_si or None, overrides_count)``
    with ``sigma_si`` of shape ``(S, n_iter)`` when any burst applies.
    """
    from repro.faults.schedule import FaultKind

    scenarios, hosts = caps.shape
    # Nominal per-scenario iteration length from the *programmed* caps.
    iter_s = np.max(physics(caps)[2], axis=1) + barrier_overhead_s

    out_caps = np.array(caps, dtype=float, copy=True)
    override_count = 0
    cap_events = schedule.of_kind(FaultKind.CAP_STUCK, FaultKind.CAP_ERROR)
    burst_events = schedule.of_kind(FaultKind.NOISE_BURST)
    sigma_si = None
    if burst_events:
        sigma_si = np.full((scenarios, n_iter), float(noise_std))

    # ``event.window_overlaps(0.0, run_end)`` with the run-end vector: the
    # event's window is one scalar interval, so only the run length varies
    # per scenario.
    run_end = n_iter * iter_s

    def overlapping(event) -> np.ndarray:
        if event.duration_s == 0.0 and event.time_s < 0.0:
            return np.zeros(scenarios, dtype=bool)
        if event.duration_s != 0.0 and event.end_s <= 0.0:
            return np.zeros(scenarios, dtype=bool)
        return event.time_s < run_end

    for event in cap_events:
        affected = [h for h in event.host_ids if h < hosts]
        if not affected:
            continue
        rows = np.nonzero(overlapping(event))[0]
        if not rows.size:
            continue
        value = event.stuck_at_w if event.kind is FaultKind.CAP_STUCK \
            else float(physics.tdp_w)
        out_caps[np.ix_(rows, affected)] = value
        override_count += rows.size * len(affected)
    if burst_events:
        cols = np.arange(n_iter)
        for event in burst_events:
            overlaps = overlapping(event)
            if not np.any(overlaps):
                continue
            first = np.floor(event.time_s / iter_s).astype(int)
            if np.isfinite(event.end_s):
                last = np.ceil(event.end_s / iter_s).astype(int)
            else:
                last = np.full(scenarios, n_iter)
            first = np.clip(first, 0, n_iter)
            last = np.maximum(first, np.minimum(last, n_iter))
            window = overlaps[:, None] & (cols >= first[:, None]) \
                & (cols < last[:, None])
            sigma_si = np.where(
                window, np.maximum(sigma_si, event.sigma), sigma_si
            )
    return out_caps, sigma_si, override_count


def _iteration_energy(
    host_times: np.ndarray,
    net_compute: np.ndarray,
    job_iter_times: np.ndarray,
    job_poll: np.ndarray,
) -> np.ndarray:
    """Per-iteration energy ``(S, iterations)``: every host's compute phase
    at ``net_compute`` (compute − poll) power plus every job's iteration
    at its hosts' summed ``job_poll`` power.

    Stacked matrix-times-vector products: matmul runs one gemv (or dot)
    per scenario slice, on the operands and strides a one-row
    ``host_times[s] @ net_compute[s]`` sees, so each row matches a
    serial run bit for bit.
    """
    return (host_times @ net_compute[:, :, np.newaxis]
            + job_iter_times @ job_poll[:, :, np.newaxis])[:, :, 0]


def _execute_scenarios(
    layout,
    caps_sw: np.ndarray,
    efficiencies: np.ndarray,
    model: ExecutionModel,
    n_iter: int,
    noise_std: float,
    barrier_overhead_s: float,
    seeds: Sequence[int],
    fault_schedule: Optional[FaultSchedule] = None,
) -> _ScenarioTensors:
    """The uninstrumented engine body, batched over a scenario axis.

    Parameters
    ----------
    layout:
        A :class:`~repro.workload.job.HostLayout` (per-host arrays of
        shape ``(hosts,)``) or a layout-like object whose per-host arrays
        carry a leading scenario axis ``(S, hosts)`` (see
        :class:`repro.sim.batch.LayoutBatch`).  ``job_index`` and
        ``job_boundaries`` are always one-dimensional.
    caps_sw:
        Cap matrix of shape ``(S, hosts)``; clamped into the RAPL range
        here, exactly as the serial path does.
    efficiencies:
        Host-variation multipliers, shape ``(hosts,)`` shared by every
        scenario or ``(S, hosts)`` with one row per scenario (the
        layout-batch case: independent runs on disjoint host subsets).
        Efficiencies only enter the bound kernel's elementwise loads
        (``kappa * eff`` and ``poll_kappa * eff``, see
        :meth:`ExecutionModel.bind`), so either shape broadcasts without
        changing any element's value.
    seeds:
        One noise seed per scenario (ignored when ``noise_std == 0``).

    Determinism contract: scenario ``s`` of the returned tensors is
    bit-identical to a serial run with ``caps_sw[s]`` and ``seeds[s]`` —
    each scenario slab draws its normals from its own
    ``default_rng(seeds[s])`` stream (:func:`~repro.parallel.seeding.noise_generator`),
    the physics, the noise scale and ``exp`` are elementwise over the
    whole tensor, segmented reductions use exact ``max`` (and per-row
    ``add`` for the job poll powers), axis sums accumulate in the same
    order per scenario slice, and the stacked energy matmuls run one
    matrix-times-vector product per scenario slice, so the same BLAS
    routine sees the same operands.

    ``fault_schedule`` (an *active* one) is the only thing allowed to
    perturb this contract: actuator overrides land before the clamp and
    noise bursts scale the same standard normals by a per-iteration
    sigma.  The gate is on :attr:`FaultSchedule.active`, so a ``None`` or
    empty schedule leaves the draw at the scalar ``noise_std``.
    """
    physics = model.bind(layout, efficiencies)
    sigma_si = None
    if fault_schedule is not None and fault_schedule.active:
        with span("faults.engine.plan", schedule=fault_schedule.name) as sp:
            caps_sw, sigma_si, override_count = _engine_fault_plan(
                fault_schedule, np.asarray(caps_sw, dtype=float), physics,
                n_iter, noise_std, barrier_overhead_s,
            )
            if sp is not None:
                sp.set_attribute("cap_overrides", override_count)
                sp.set_attribute("noise_burst", sigma_si is not None)
        # The plan span's count is the number of faulted runs; no span
        # total carries the override sum, so it keeps its counter.
        if override_count and enabled():
            get_registry().counter("faults.engine.cap_overrides").inc(
                override_count
            )

    # --- deterministic per-host physics (S, hosts) --------------------
    caps, _, t_compute, p_compute, p_poll = physics(caps_sw)
    scenarios, hosts = caps.shape

    # --- noisy iterations (S, iterations, hosts) ----------------------
    if sigma_si is None and noise_std == 0:
        # Noise-free times repeat the deterministic row: a broadcast view.
        host_times = np.broadcast_to(
            t_compute[:, np.newaxis, :], (scenarios, n_iter, hosts)
        )
    else:
        # noise_generator(seed) is default_rng(seed)'s stream; a seed a
        # BlockSeeds block derived skips SeedSequence's scalar hash.
        from repro.parallel.seeding import noise_generator

        host_times = np.empty((scenarios, n_iter, hosts))
        for slab, seed in zip(host_times, seeds, strict=True):
            noise_generator(seed).standard_normal(out=slab)
        # Scale, exp and the deterministic times are elementwise, so one
        # pass over the whole tensor gives each element the bits a
        # per-scenario pass gives it (multiplication commutes bitwise).
        host_times *= noise_std if sigma_si is None \
            else sigma_si[:, :, np.newaxis]
        np.exp(host_times, out=host_times)
        host_times *= t_compute[:, np.newaxis, :]

    starts = layout.job_boundaries[:-1]
    # Segmented max per iteration row: reduceat along the host axis.
    job_iter_times = np.maximum.reduceat(host_times, starts, axis=2)
    job_iter_times += barrier_overhead_s

    # --- energy accounting ---------------------------------------------
    # Slack (barrier overhead included) is never negative: each job
    # iteration time is at least each of its hosts' times, and both axis
    # sums accumulate iterations in the same order.
    host_compute_s = host_times.sum(axis=1)
    host_slack_s = job_iter_times.sum(axis=1)[:, layout.job_index] \
        - host_compute_s
    host_energy = p_compute * host_compute_s + p_poll * host_slack_s
    iteration_energy = _iteration_energy(
        host_times, p_compute - p_poll,
        job_iter_times, np.add.reduceat(p_poll, starts, axis=-1),
    )
    host_elapsed = host_compute_s + host_slack_s
    with np.errstate(invalid="ignore", divide="ignore"):
        host_mean_power = np.where(host_elapsed > 0, host_energy / host_elapsed, 0.0)

    total_gflop = np.sum(layout.gflop, axis=-1) * float(n_iter)
    total_gflop = np.ascontiguousarray(
        np.broadcast_to(np.asarray(total_gflop, dtype=float), (scenarios,))
    )

    return _ScenarioTensors(
        job_iter_times=job_iter_times,
        iteration_energy=iteration_energy,
        host_energy=host_energy,
        host_mean_power=host_mean_power,
        total_gflop=total_gflop,
    )


def simulate_mix(
    mix: WorkloadMix,
    caps_w: np.ndarray,
    efficiencies: np.ndarray,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
    policy_name: str = "unmanaged",
    budget_w: float = 0.0,
) -> MixRunResult:
    """Simulate one execution of ``mix`` under per-host power caps.

    Parameters
    ----------
    mix:
        The co-scheduled jobs.
    caps_w:
        Per-host node power caps (W), length ``mix.total_nodes``.  Values
        are clamped into the RAPL-settable range ``[min_cap_w, tdp_w]``
        by :class:`~repro.sim.engine.BoundEpoch`.
    efficiencies:
        Per-host variation multipliers (from the cluster allocation).
    model:
        Physics bundle; defaults to the Quartz node model.
    options:
        Noise/seed settings (``None`` means the shared frozen
        :data:`DEFAULT_OPTIONS`; never pass a dataclass instance as a
        def-line default — see the mutable-default regression test).
    policy_name / budget_w:
        Metadata recorded on the result.

    To evaluate many cap vectors against one mix, prefer
    :func:`repro.sim.batch.simulate_cap_batch`, which runs the whole
    scenario set through one pass of the same engine body.

    Returns
    -------
    MixRunResult
        Per-iteration job times, per-host energy and mean power, FLOPs.
    """
    from repro.sim.batch import _run_rows

    if options is None:
        options = DEFAULT_OPTIONS
    model = model if model is not None else ExecutionModel()
    return _run_rows(
        "sim.simulate_mix", [mix.layout()], mix.common_iterations(),
        np.asarray(caps_w, dtype=float)[np.newaxis], efficiencies, model,
        options, (options.seed,), mix=mix.name, policy=policy_name,
    ).result(0, mix, policy_name, float(budget_w))
