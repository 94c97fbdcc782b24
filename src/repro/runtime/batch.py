"""Batched controller runtime: many feedback loops stepped in lockstep.

The serial :class:`~repro.runtime.controller.Controller` advances *one*
job's agent loop an epoch at a time — authentic, but every consumer that
sweeps the real feedback path (the Fig. 4/5 characterization grids, the
balancer convergence studies, resilience scenario suites) pays
``O(cells × epochs)`` Python overhead running it in a loop.  This module
adds the *run axis*: :class:`ControllerBatch` advances ``C`` independent
controller runs together, one vectorised physics step per epoch over
``(C, hosts)`` tensors.  Both runtimes step their epochs through the same
kernel, :meth:`~repro.sim.engine.ExecutionModel.bind` — the serial
controller binds its hosts once per run, the batch binds the stacked
active rows once per active set — and split the energy with the same
:func:`~repro.runtime.controller.epoch_energy`.

Determinism contract
--------------------
Run ``c`` of a batch is **bit-identical** to a serial ``Controller`` run
with the same job, efficiencies, seed, and agent — not merely close:

* every physics quantity is a pure elementwise ufunc chain evaluated by
  one bound kernel, so a leading run axis cannot change any element's
  value;
* per-run reductions (epoch critical path, report energy sums) operate on
  contiguous rows with the serial operation order;
* noise is drawn from *per-run* ``default_rng(seed)`` streams, only on
  epochs where that run's effective sigma is positive — the serial
  draw-by-draw sequence;
* batched agents (:meth:`~repro.runtime.agent.AgentBatch.adjust_batch`)
  are themselves written to the same contract, and both runtimes build
  reports through one function
  (:func:`~repro.runtime.reports.report_from_arrays`).

The property is pinned by ``tests/property/test_controller_batch.py``.

Agent batching
--------------
Runs are grouped by agent class and options (an agent's ``options``
attribute, ``None`` when it has none); each group gets one
:class:`~repro.runtime.agent.AgentBatch` from the class's own
``make_batch(agents)`` classmethod.  The monitor, the power governor,
the power balancer and the frequency governor all define one, and each
batch steps its rows with the same kernels as the serial agent.  There
is no per-run fallback: an agent class without its own ``make_batch``
raises ``TypeError`` and an agent that has already stepped raises
``ValueError`` at construction (the serial ``Controller`` still runs
any :class:`~repro.runtime.agent.Agent`).  Fault-injected runs batch
too: the group's sample is copied and each injected row replaced by its
injector's ``corrupt_sample`` view, so the agents steer on the corrupted
telemetry while the log keeps the truthful physics.

Convergence freezing
--------------------
A converged run leaves the active set: its state is recorded and it is
excluded from further physics and agent work, exactly like a serial
controller that stopped iterating.  The active set only shrinks, so run
``c``'s history is always the first ``epochs[c]`` entries of the batch
log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.agent import Agent, AgentBatch, SampleBatch
from repro.runtime.controller import (
    EpochResult,
    check_run_inputs,
    epoch_energy,
    initial_limits,
)
from repro.runtime.reports import JobReport, report_from_arrays
from repro.sim.batch import stack_job_layouts
from repro.sim.engine import ExecutionModel
from repro.telemetry import ScopedTimer, emit, enabled, get_registry, span
from repro.workload.job import Job

__all__ = [
    "ControllerRunSpec",
    "ControllerBatch",
    "ControllerBatchResult",
    "run_controller_batch",
]


@dataclass(frozen=True)
class ControllerRunSpec:
    """One run's configuration — the arguments of a serial ``Controller``.

    Attributes mirror :class:`~repro.runtime.controller.Controller`
    parameter-for-parameter so a spec and a serial controller built from
    the same values describe the same run.
    """

    job: Job
    efficiencies: np.ndarray
    agent: Agent
    noise_std: float = 0.0
    seed: int = 0
    barrier_overhead_s: float = 5.0e-4
    fault_injector: object = None

    def __post_init__(self) -> None:
        eff = check_run_inputs(
            self.job, self.efficiencies, self.noise_std,
            self.barrier_overhead_s,
        )
        object.__setattr__(self, "efficiencies", eff)

    @property
    def injecting(self) -> bool:
        """Whether this run carries an active fault injector."""
        return self.fault_injector is not None and self.fault_injector.active


@dataclass(frozen=True)
class _EpochLog:
    """One epoch's record for all runs active that epoch."""

    epoch: int
    rows: np.ndarray              # (A,) global run indices, sorted
    sample: SampleBatch           # truthful physics, one row per entry of rows
    limits_applied_w: np.ndarray  # (A, hosts) limits the agents returned


class _AgentGroup(NamedTuple):
    """The runs one vectorised :class:`AgentBatch` steps (ascending ids)."""

    members: np.ndarray
    batch: AgentBatch


class _ActiveGather:
    """Per-active-set caches: the bound physics kernel and agent dispatch.

    Rebuilt only when the active set changes (a convergence event), not
    every epoch.  ``groups`` holds ``(group, rows, positions, injected)``
    with ``(index into rows, position, injector)`` per injected run.
    """

    def __init__(self, batch: "ControllerBatch", active: np.ndarray) -> None:
        self.physics = batch.model.bind(
            batch._layouts.take(active), batch._eff[active]
        )
        self.noise = batch._noise[active]
        self.barrier = batch._barrier[active]
        pos_of = {int(c): i for i, c in enumerate(active)}
        self.groups: List[tuple] = []
        for group in batch._groups:
            rows = [
                (row, pos_of[c], batch.specs[c])
                for row, c in enumerate(group.members.tolist())
                if c in pos_of
            ]
            if rows:
                in_group, positions, specs = zip(*rows)
                injected = [
                    (i, pos, spec.fault_injector)
                    for i, (pos, spec) in enumerate(zip(positions, specs))
                    if spec.injecting
                ]
                self.groups.append(
                    (group, np.array(in_group, dtype=int),
                     np.array(positions, dtype=int), injected)
                )
        self.injected = [
            (c, pos_of[c]) for c in batch._injected if c in pos_of
        ]


def _slice_sample(sample: SampleBatch, positions: np.ndarray) -> SampleBatch:
    """Rows ``positions`` of a sample (the full sample when they cover it)."""
    if positions.size == sample.epoch_time_s.size and np.array_equal(
        positions, np.arange(positions.size)
    ):
        return sample
    return SampleBatch(
        epoch=sample.epoch,
        host_time_s=sample.host_time_s[positions],
        epoch_time_s=sample.epoch_time_s[positions],
        host_power_w=sample.host_power_w[positions],
        power_limit_w=sample.power_limit_w[positions],
        host_energy_j=sample.host_energy_j[positions],
        mean_freq_ghz=sample.mean_freq_ghz[positions],
    )


@dataclass(frozen=True)
class ControllerBatchResult:
    """Outcome of a batched controller run.

    ``reports[c]``, ``epochs[c]``, ``converged[c]``, and the per-run
    accessors are bit-identical to what the matching serial
    ``Controller`` would have produced (reports compared under disabled
    telemetry — wall-clock telemetry fields necessarily differ).
    """

    reports: Tuple[JobReport, ...]
    epochs: np.ndarray          # (C,) epochs each run executed
    converged: np.ndarray       # (C,) final convergence verdicts
    _log: Tuple[_EpochLog, ...]
    _final_limits_w: np.ndarray  # (C, hosts)

    @property
    def run_count(self) -> int:
        """Runs in the batch."""
        return len(self.reports)

    def _position(self, log: _EpochLog, run: int) -> int:
        pos = int(np.searchsorted(log.rows, run))
        if pos >= log.rows.size or log.rows[pos] != run:
            raise IndexError(f"run {run} was not active in epoch {log.epoch}")
        return pos

    def final_limits_w(self, run: int) -> np.ndarray:
        """Limits in force after run ``run``'s final epoch."""
        return self._final_limits_w[run].copy()

    def steady_state_sample(self, run: int):
        """Run ``run``'s final-epoch telemetry (its converged point)."""
        log = self._log[int(self.epochs[run]) - 1]
        return log.sample.sample_for(self._position(log, run))

    def history_for(self, run: int) -> List[EpochResult]:
        """Materialise run ``run``'s serial-equivalent epoch history."""
        out: List[EpochResult] = []
        for log in self._log[: int(self.epochs[run])]:
            pos = self._position(log, run)
            out.append(
                EpochResult(
                    epoch=log.epoch,
                    sample=log.sample.sample_for(pos),
                    limits_applied_w=log.limits_applied_w[pos].copy(),
                )
            )
        return out


class ControllerBatch:
    """Advance ``C`` controller runs in lockstep (see module docstring).

    Parameters
    ----------
    specs:
        One :class:`ControllerRunSpec` per run.  Jobs may differ freely in
        kernel configuration but must share one host count so their
        layouts stack.
    model:
        Physics bundle shared by every run (defaults to the Quartz node
        model, as in the serial controller).
    """

    def __init__(
        self,
        specs: Sequence[ControllerRunSpec],
        model: Optional[ExecutionModel] = None,
    ) -> None:
        specs = list(specs)
        if not specs:
            raise ValueError("a controller batch needs at least one run")
        hosts = specs[0].job.node_count
        for spec in specs:
            if spec.job.node_count != hosts:
                raise ValueError(
                    "all runs in a controller batch must share one host count"
                )
        self.specs = specs
        self.model = model if model is not None else ExecutionModel()
        self.hosts = int(hosts)
        self.run_count = len(specs)
        self._layouts = stack_job_layouts([s.job for s in specs])
        self._eff = np.stack([s.efficiencies for s in specs])
        self._noise = np.array([s.noise_std for s in specs], dtype=float)
        self._barrier = np.array(
            [s.barrier_overhead_s for s in specs], dtype=float
        )
        self._rngs = [np.random.default_rng(s.seed) for s in specs]
        self._injected = [c for c, s in enumerate(specs) if s.injecting]
        self._groups = self._plan_agents(specs)

    # ------------------------------------------------------------------
    @staticmethod
    def _plan_agents(specs: Sequence[ControllerRunSpec]) -> List[_AgentGroup]:
        """Group runs by agent class and options, one batch per group.

        The agent's own class (not an inherited base, whose batch would
        step the base's algorithm) must define ``make_batch``.
        """
        by_key: Dict[tuple, List[int]] = {}
        for c, spec in enumerate(specs):
            cls = type(spec.agent)
            if "make_batch" not in vars(cls):
                raise TypeError(
                    f"{cls.__name__} defines no make_batch, so "
                    f"ControllerBatch cannot step it; run it with Controller"
                )
            key = (cls, getattr(spec.agent, "options", None))
            by_key.setdefault(key, []).append(c)
        return [
            _AgentGroup(np.array(members),
                        cls.make_batch([specs[c].agent for c in members]))
            for (cls, _), members in by_key.items()
        ]

    # ------------------------------------------------------------------
    def _run_epoch_batch(
        self,
        epoch: int,
        limits: np.ndarray,
        active: np.ndarray,
        gathered: _ActiveGather,
        clock: np.ndarray,
    ) -> Tuple[SampleBatch, np.ndarray]:
        """One vectorised physics step for the active rows.

        The physics is the active set's bound kernel (the one
        ``Controller._run_epoch`` calls, bound to stacked rows) and the
        energy split is :func:`~repro.runtime.controller.epoch_energy`;
        the run axis only broadcasts, so every element matches its serial
        twin bitwise.
        """
        lim = limits[active]
        clock_start = clock[active].copy()
        sigma = gathered.noise.copy()
        for c, pos in gathered.injected:
            injector = self.specs[c].fault_injector
            t_now = float(clock_start[pos])
            lim[pos] = injector.filter_limits(lim[pos], t_now)
            sigma[pos] = injector.noise_sigma(float(sigma[pos]), t_now)
        caps, freq, t, p_compute, p_poll = gathered.physics(lim)
        for pos in np.nonzero(sigma > 0)[0].tolist():
            rng = self._rngs[int(active[pos])]
            t[pos] = t[pos] * rng.lognormal(
                0.0, float(sigma[pos]), size=t[pos].shape
            )
        epoch_time = t.max(axis=1) + gathered.barrier
        energy, mean_power = epoch_energy(
            t, epoch_time[:, None], p_compute, p_poll
        )
        sample = SampleBatch(
            epoch=epoch,
            host_time_s=t,
            epoch_time_s=epoch_time,
            host_power_w=mean_power,
            power_limit_w=caps,
            host_energy_j=energy,
            mean_freq_ghz=freq,
        )
        return sample, clock_start

    def _adjust(
        self,
        sample: SampleBatch,
        gathered: _ActiveGather,
        clock_start: np.ndarray,
    ) -> np.ndarray:
        """All active runs' agent steps; returns ``(A, hosts)`` limits.

        Injected rows' agents see their injector's corrupted view.
        """
        new_limits = np.empty((sample.run_count, self.hosts))
        for group, in_group, positions, injected in gathered.groups:
            observed = _slice_sample(sample, positions)
            if injected:
                observed = observed.replace_rows({
                    i: injector.corrupt_sample(
                        sample.sample_for(pos), float(clock_start[pos])
                    )
                    for i, pos, injector in injected
                })
            new_limits[positions] = group.batch.adjust_batch(observed, in_group)
        return new_limits

    def _converged(
        self, gathered: _ActiveGather, active_size: int
    ) -> np.ndarray:
        """Active rows' convergence verdicts."""
        conv = np.zeros(active_size, dtype=bool)
        for group, in_group, positions, _ in gathered.groups:
            conv[positions] = group.batch.converged_mask(in_group)
        return conv

    # ------------------------------------------------------------------
    def run(
        self,
        initial_limits_w: Optional[np.ndarray] = None,
        max_epochs: int = 200,
        min_epochs: int = 3,
    ) -> ControllerBatchResult:
        """Execute every run until it converges or the budget runs out.

        Parameters match :meth:`Controller.run`; ``initial_limits_w`` may
        be ``None`` (TDP everywhere, the serial default), one ``(hosts,)``
        vector shared by all runs, or a per-run ``(C, hosts)`` matrix.
        """
        if max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        runs, hosts = self.run_count, self.hosts
        limits = initial_limits(
            initial_limits_w, (runs, hosts), self.model.power_model.tdp_w
        )

        log: List[_EpochLog] = []
        clock = np.zeros(runs)
        epochs_run = np.zeros(runs, dtype=int)
        converged = np.zeros(runs, dtype=bool)
        active = np.arange(runs)
        gathered: Optional[_ActiveGather] = None
        registry = get_registry() if enabled() else None
        if registry is not None:
            registry.counter("runtime.controller.batch_runs").inc(runs)
        agent_names = ",".join(sorted({s.agent.name for s in self.specs}))
        with span("runtime.controller.batch_run", runs=runs, hosts=hosts,
                  agents=agent_names) as trace_sp, \
                ScopedTimer("runtime.controller.batch_run_s") as timer:
            for epoch in range(max_epochs):
                if gathered is None:
                    gathered = _ActiveGather(self, active)
                sample, clock_start = self._run_epoch_batch(
                    epoch, limits, active, gathered, clock
                )
                clock[active] = clock[active] + sample.epoch_time_s
                new_limits = self._adjust(sample, gathered, clock_start)
                limits[active] = new_limits
                log.append(
                    _EpochLog(epoch, active.copy(), sample, new_limits.copy())
                )
                epochs_run[active] += 1
                if registry is not None:
                    registry.gauge(
                        "runtime.controller.batch_active_runs"
                    ).set(float(active.size))
                if epoch + 1 >= min_epochs:
                    conv = self._converged(gathered, active.size)
                    if np.any(conv):
                        converged[active[conv]] = True
                        active = active[~conv]
                        gathered = None
                        if active.size == 0:
                            break
            # Serial controllers evaluate ``agent.converged()`` once more
            # after the loop; mirror that for runs that exhausted the
            # budget (for a min_epochs > max_epochs run this is the
            # *first* check).
            if active.size:
                if gathered is None:
                    gathered = _ActiveGather(self, active)
                converged[active] = self._converged(gathered, active.size)
            if trace_sp is not None:
                trace_sp.set_attribute(
                    "epochs_total", int(np.sum(epochs_run))
                )
                trace_sp.set_attribute("converged", int(np.sum(converged)))

        self._log = tuple(log)
        result = self._build_result(epochs_run, converged)
        if registry is not None:
            epochs_hist = registry.histogram("runtime.controller.epochs")
            for n in epochs_run.tolist():
                epochs_hist.observe(n)
            n_converged = int(np.sum(converged))
            if n_converged:
                registry.counter("runtime.controller.converged").inc(
                    n_converged
                )
            emit(
                "runtime.controller", "batch_complete",
                runs=runs,
                agents=agent_names,
                epochs_total=int(np.sum(epochs_run)),
                epochs_max=int(np.max(epochs_run)),
                converged=n_converged,
                wall_s=timer.elapsed_s,
            )
            for c, report in enumerate(result.reports):
                report.telemetry.update({
                    "batch_runs": float(runs),
                    "batch_wall_s": timer.elapsed_s,
                    "epochs": float(epochs_run[c]),
                    "converged": 1.0 if converged[c] else 0.0,
                })
        return result

    # ------------------------------------------------------------------
    def _build_result(
        self, epochs_run: np.ndarray, converged: np.ndarray
    ) -> ControllerBatchResult:
        """Scatter the epoch log into per-run reports (one pass)."""
        runs, hosts = self.run_count, self.hosts
        total_epochs = len(self._log)
        times = np.zeros((runs, total_epochs))
        energy = np.zeros((runs, total_epochs, hosts))
        freq = np.zeros((runs, total_epochs, hosts))
        final_limits = np.zeros((runs, hosts))
        for e, entry in enumerate(self._log):
            times[entry.rows, e] = entry.sample.epoch_time_s
            energy[entry.rows, e] = entry.sample.host_energy_j
            freq[entry.rows, e] = entry.sample.mean_freq_ghz
            final_limits[entry.rows] = entry.limits_applied_w
        metadata = {
            c: dict(group.batch.describe_run(row))
            for group in self._groups
            for row, c in enumerate(group.members.tolist())
        }
        reports = tuple(
            report_from_arrays(
                job_name=self.specs[c].job.name,
                agent=self.specs[c].agent.name,
                epoch_times_s=times[c, : epochs_run[c]],
                host_energy_j=energy[c, : epochs_run[c]],
                mean_freq_ghz=freq[c, : epochs_run[c]],
                final_limits_w=final_limits[c],
                metadata=metadata[c],
            )
            for c in range(runs)
        )
        return ControllerBatchResult(
            reports=reports,
            epochs=epochs_run.copy(),
            converged=converged.copy(),
            _log=self._log,
            _final_limits_w=final_limits,
        )


def run_controller_batch(
    specs: Sequence[ControllerRunSpec],
    model: Optional[ExecutionModel] = None,
    initial_limits_w: Optional[np.ndarray] = None,
    max_epochs: int = 200,
    min_epochs: int = 3,
) -> ControllerBatchResult:
    """Build a :class:`ControllerBatch` and run it (convenience wrapper)."""
    return ControllerBatch(specs, model=model).run(
        initial_limits_w=initial_limits_w,
        max_epochs=max_epochs,
        min_epochs=min_epochs,
    )
