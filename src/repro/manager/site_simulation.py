"""Time-stepped site simulation: arrivals, admission, dispatch, telemetry.

The capstone integration of the resource-manager substrate: jobs *arrive
over time*, the power-aware admission controller decides what starts
whenever capacity frees up, admitted batches run under a policy, and the
site's power telemetry accumulates into the Fig. 1-style record.  This is
the operating loop the paper's stack serves, driven end to end:

    arrivals -> JobQueue -> PowerAwareAdmission -> plan_admitted_batch
             -> execute_planned_batches -> finish_planned_batch -> telemetry

The simulation is event-stepped at batch granularity: whenever the
cluster drains, the next admission round runs against everything that has
arrived by then.  (Co-scheduling newly admitted jobs alongside running
ones would need preemptive re-allocation, which the paper leaves to
future work; batch granularity keeps the model inside what the paper's
policies define.)

One batch path
--------------
Every admitted batch, in every site loop, takes the same three stages:
:func:`plan_admitted_batch` schedules it onto the schedulable hosts and
plans its caps (memoised through a :class:`BatchPlanner`, or through the
degradation ladder under faults); :func:`execute_planned_batches` runs
any number of planned batches through grouped stacked engine passes; and
:func:`finish_planned_batch` folds each simulated row into the batch
record.  A single batch is the one-row case.  :func:`shift_rounds` is
the shift loop itself, a generator that yields planned batches to its
caller: :func:`run_site_simulation` executes them one at a time, and the
fused facility engine (:mod:`repro.hierarchy.fused`) fuses the batches
of many clusters.  The rolling streaming engine (:mod:`repro.stream`)
plans and executes its co-resident batches through the same stages.

Fault replay
------------
An optional :class:`~repro.faults.schedule.FaultSchedule` turns the shift
into a resilience run.  Each admission round queries the schedule at the
site clock: the facility budget in force (drops, ramps, restores), the
failed-host set (scheduling moves to the healthy subset and the failed
hosts are quarantined for the batch), and whether a sensor dropout has
blinded characterization (the batch then plans through the
:func:`~repro.faults.degradation.plan_with_degradation` ladder's
characterization-free clamp tier).  Engine-applicable faults (stuck or
erroring caps, noise bursts) are re-clocked to the batch's launch via
:meth:`~repro.faults.schedule.FaultSchedule.engine_slice`, and such a
batch runs as an engine pass of its own.  Every fault hook is gated on
:attr:`~repro.faults.schedule.FaultSchedule.active`, so ``None`` and an
*empty* schedule take the identical fault-free code path and produce
bit-identical results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.mix_characterization import characterize_mix
from repro.core.policy import Policy
from repro.manager.admission import AdmissionDecision, PowerAwareAdmission
from repro.manager.power_manager import PowerManager, apply_job_runtime
from repro.manager.queue import JobQueue, JobRequest, JobState
from repro.manager.scheduler import ScheduledMix
from repro.hardware.cluster import Cluster
from repro.sim.execution import SimulationOptions
from repro.telemetry import emit, enabled, get_registry, span
from repro.units import ensure_positive
from repro.workload.job import WorkloadMix

__all__ = [
    "Arrival",
    "BatchRecord",
    "BatchExecution",
    "BatchPlanner",
    "ExecutedBatches",
    "PlannedBatch",
    "SiteSimulationResult",
    "execute_planned_batches",
    "finish_planned_batch",
    "plan_admitted_batch",
    "run_site_simulation",
    "shift_rounds",
]


@dataclass(frozen=True)
class Arrival:
    """One job submission with its arrival time."""

    time_s: float
    request: JobRequest

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("arrival time must be non-negative")


@dataclass(frozen=True)
class BatchRecord:
    """One admission round and its execution.

    The trailing defaulted fields are only populated on fault-replay
    runs; a fault-free shift records the historical six fields exactly as
    before.
    """

    start_s: float
    end_s: float
    admitted: Tuple[str, ...]
    deferred: Tuple[str, ...]
    mean_power_w: float
    energy_j: float
    #: Facility budget in force when the batch launched (0 = not recorded).
    budget_w: float = 0.0
    #: Degradation-ladder tier that produced the caps ("none" fault-free).
    degradation_tier: str = "none"
    #: Hosts quarantined (out of the schedulable pool) during the batch.
    quarantined: Tuple[int, ...] = ()
    #: Watt-seconds above the *launch* budget after planning — the
    #: post-re-plan compliance quantity (zero on feasible scenarios for
    #: system-power-aware policies).
    planned_overshoot_ws: float = 0.0
    #: Total watt-seconds over budget including the reaction window of
    #: mid-batch budget drops (the pre-re-plan exposure).
    overshoot_ws: float = 0.0
    #: Simulated decision latency charged by degradation-ladder retries.
    backoff_s: float = 0.0

    @property
    def duration_s(self) -> float:
        """Wall time of the batch."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class BatchExecution:
    """One admitted batch, executed — the unit both site loops share.

    ``completion_s[i]`` is job ``i``'s completion clock **including** the
    degradation ladder's decision latency (``backoff_s``): retries delay
    the launch, so every job finishes no later than the batch's
    ``record.end_s`` (the job on the critical path finishes exactly
    then).
    """

    record: BatchRecord
    job_names: Tuple[str, ...]
    completion_s: Tuple[float, ...]


@dataclass(frozen=True)
class SiteSimulationResult:
    """Everything the simulated shift produced."""

    policy_name: str
    budget_w: float
    batches: Tuple[BatchRecord, ...]
    completed: Tuple[str, ...]
    never_admitted: Tuple[str, ...]
    job_turnaround_s: Dict[str, float]
    #: Name of the replayed fault schedule ("" on fault-free shifts).
    fault_schedule_name: str = ""
    #: Jobs still pending (or not yet arrived) when the shift hit its
    #: ``max_batches`` round limit — unfinished work, *not* jobs the
    #: admission controller rejected as unschedulable.
    truncated: Tuple[str, ...] = ()

    @property
    def makespan_s(self) -> float:
        """Clock time from first arrival to last completion."""
        return float(self.batches[-1].end_s) if self.batches else 0.0

    def total_overshoot_ws(self) -> float:
        """Watt-seconds over budget across the shift (reaction included)."""
        return float(sum(b.overshoot_ws for b in self.batches))

    def planned_overshoot_ws(self) -> float:
        """Watt-seconds over the launch budget after re-planning.

        The post-stage-2 compliance quantity: zero on feasible scenarios
        whenever the policy is system-power-aware.
        """
        return float(sum(b.planned_overshoot_ws for b in self.batches))

    def degraded_batches(self) -> Tuple[int, ...]:
        """Indices of batches planned below the re-plan tier."""
        return tuple(
            i for i, b in enumerate(self.batches)
            if b.degradation_tier not in ("none", "replan")
        )

    @property
    def total_energy_j(self) -> float:
        """Energy across all batches."""
        return float(sum(b.energy_j for b in self.batches))

    def mean_turnaround_s(self) -> float:
        """Mean submission-to-completion time over completed jobs."""
        if not self.job_turnaround_s:
            return 0.0
        return float(np.mean(list(self.job_turnaround_s.values())))

    def peak_power_w(self) -> float:
        """Highest batch mean power (the budget-compliance check)."""
        return max((b.mean_power_w for b in self.batches), default=0.0)


@dataclass(frozen=True)
class PlannedBatch:
    """An admitted batch, scheduled and planned but not yet simulated.

    Every batch runs through three stages: :func:`plan_admitted_batch`
    produces one of these, :func:`execute_planned_batches` simulates any
    number of them in grouped stacked engine passes, and
    :func:`finish_planned_batch` turns each simulated row into the
    :class:`BatchExecution` a site loop consumes.  A scalar execution is
    the one-row case.

    The trailing defaulted fields carry the fault-replay state of the
    batch: the degradation-ladder outcome (``tier`` / ``backoff_s``), the
    active schedule and reaction window for stage 3's compliance
    accounting, and ``engine_faults`` — the schedule's engine-applicable
    events re-clocked to the launch (``None`` when no cap or noise fault
    can touch the run).  Fault-free batches leave them at their defaults.
    """

    clock: float
    batch_index: int
    decision: AdmissionDecision
    scheduled: "ScheduledMix"
    effective_caps: np.ndarray
    batch_seed: int
    policy: Policy
    budget_w: float
    batch_budget_w: float
    quarantined: Tuple[int, ...]
    tier: str = "none"
    backoff_s: float = 0.0
    fault_schedule: object = None
    reaction_s: float = 1.0
    engine_faults: object = None

    @property
    def mix(self) -> WorkloadMix:
        """The batch's workload mix (one entry per admitted job)."""
        return self.scheduled.mix


#: Bound on each level of a :class:`BatchPlanner` memo (job shapes,
#: characterizations, caps arrays).  A level that reaches it is cleared
#: wholesale, as the stacked-layout memo in :mod:`repro.sim.batch` is.
PLANNER_MEMO_LIMIT = 128


class BatchPlanner:
    """Memoised characterization and cap allocation for admitted batches.

    Characterization and cap allocation depend only on the job *shapes*
    (kernel config, node count, iterations), the host-efficiency vector,
    and the budget — never on job or batch names — so a sustained stream
    drawing from a few job classes plans each (shape, hosts, budget)
    combination once and replays it from the memo thereafter.  This is
    the planning analogue of the admission controller's per-(config,
    nodes) estimate cache, and it reuses the same insight: streams are
    repetitive, physics is deterministic.

    Memo hits return the *identical* caps array (read-only) and
    characterization a fresh :func:`characterize_mix` +
    :meth:`PowerManager.plan` + :func:`apply_job_runtime` chain would
    produce, because that is exactly what populated the memo.  Each memo
    level holds at most :data:`PLANNER_MEMO_LIMIT` entries, so a
    long-lived engine on heterogeneous hosts (where nearly every
    efficiency vector is new) stays bounded.
    """

    def __init__(self, manager: PowerManager, policy: Policy) -> None:
        self.manager = manager
        self.policy = policy
        # shape_key -> {"layout": HostLayout, "iters": int,
        #               "by_eff": {eff bytes -> {"char": ...,
        #                                        "caps": {budget -> caps}}}}
        # One nested entry per shape so the (potentially expensive)
        # shape-key tuple — it hashes every KernelConfig field — is
        # hashed once per plan call, not once per memo level.
        self._memo: Dict[tuple, dict] = {}
        self._char_entries = 0
        self._caps_entries = 0
        #: Characterization-level memo hits/misses (the physics-pass
        #: savings a shared planner delivers across batches and, in the
        #: fused facility engine, across clusters).
        self.char_hits = 0
        self.char_misses = 0

    def memo_sizes(self) -> Tuple[int, int, int]:
        """``(shapes, characterizations, caps arrays)`` held in the memo."""
        return len(self._memo), self._char_entries, self._caps_entries

    def _clear_characterizations(self) -> None:
        for entry in self._memo.values():
            entry["by_eff"].clear()
        self._char_entries = self._caps_entries = 0

    def _clear_caps(self) -> None:
        for entry in self._memo.values():
            for sub in entry["by_eff"].values():
                sub["caps"].clear()
        self._caps_entries = 0

    def _lookup(self, scheduled: "ScheduledMix") -> dict:
        """The per-(shape, efficiencies) memo slot, characterized.

        Also seeds the mix's layout memo from the per-shape cache:
        :meth:`WorkloadMix.layout` memoises per *instance*, but every
        batch is a fresh mix object, so without this the layout would be
        rebuilt per batch even though it depends only on the job shapes
        (names appear nowhere in a :class:`HostLayout`).  Sharing one
        read-only layout across same-shape batches also lets the
        stacked-layout cache hit by identity.
        """
        mix = scheduled.mix
        shape_key = tuple(
            (job.config, job.node_count, job.iterations) for job in mix.jobs
        )
        entry = self._memo.get(shape_key)
        if entry is None:
            if len(self._memo) >= PLANNER_MEMO_LIMIT:
                self._memo.clear()
                self._char_entries = self._caps_entries = 0
            entry = {"layout": mix.layout(),
                     "iters": mix.common_iterations(), "by_eff": {}}
            self._memo[shape_key] = entry
        else:
            object.__setattr__(mix, "_layout", entry["layout"])
            object.__setattr__(mix, "_common_iterations", entry["iters"])
        eff_key = scheduled.efficiencies.tobytes()
        sub = entry["by_eff"].get(eff_key)
        if sub is None:
            self.char_misses += 1
            if self._char_entries >= PLANNER_MEMO_LIMIT:
                self._clear_characterizations()
            char = characterize_mix(
                mix, scheduled.efficiencies, self.manager.model
            )
            sub = {"char": char, "caps": {}}
            entry["by_eff"][eff_key] = sub
            self._char_entries += 1
        else:
            self.char_hits += 1
        return sub

    def characterization(self, scheduled: "ScheduledMix"):
        """The memoised characterization alone (no cap allocation).

        Fault-replay batches plan their caps through the degradation
        ladder rather than the per-budget caps memo (the faulted budget
        varies per epoch), but their characterization is the same pure
        function of (shapes, efficiencies, model).  The returned object
        may carry the ``mix_name`` of the batch that populated the memo.
        """
        return self._lookup(scheduled)["char"]

    def plan(self, scheduled: "ScheduledMix", budget_w: float):
        """Characterize + allocate, memoised.  Returns ``(char, caps)``.

        The characterization may carry the ``mix_name`` of the batch
        that populated the memo; every numeric field is the current
        batch's.
        """
        sub = self._lookup(scheduled)
        char = sub["char"]
        budget_key = float(budget_w)
        caps = sub["caps"].get(budget_key)
        if caps is None:
            allocation = self.manager.plan(
                scheduled, self.policy, budget_w, char
            )
            caps = allocation.caps_w
            if self.policy.application_aware:
                caps = apply_job_runtime(char, caps)
            caps = np.asarray(caps, dtype=float)
            caps.setflags(write=False)
            if self._caps_entries >= PLANNER_MEMO_LIMIT:
                self._clear_caps()
            sub["caps"][budget_key] = caps
            self._caps_entries += 1
        return char, caps


#: Shared read-only ``arange(n)`` vectors for the uniform-hosts fast
#: path of :func:`plan_admitted_batch` (one per batch size seen).
_IDENTITY_ORDERS: Dict[int, np.ndarray] = {}


def _identity_order(n: int) -> np.ndarray:
    order = _IDENTITY_ORDERS.get(n)
    if order is None:
        order = np.arange(n)
        order.setflags(write=False)
        _IDENTITY_ORDERS[n] = order
    return order


def plan_admitted_batch(
    *,
    clock: float,
    batch_index: int,
    admitted: Sequence[JobRequest],
    decision: AdmissionDecision,
    host_efficiencies: np.ndarray,
    policy: Policy,
    budget_w: float,
    batch_budget_w: float,
    quarantined: Tuple[int, ...],
    manager: PowerManager,
    run_seed: Optional[int],
    planner: Optional[BatchPlanner] = None,
    uniform_hosts: bool = False,
    fault_schedule=None,
    degradation=None,
    reaction_s: float = 1.0,
) -> PlannedBatch:
    """Stage 1: schedule and plan one admitted batch at ``clock``.

    ``host_efficiencies`` are the efficiencies of the schedulable hosts —
    the whole partition, its healthy rows, or a free subset — in
    ascending host-id order.  Scheduling is :meth:`Scheduler.allocate`'s,
    without building a :class:`Cluster` or :class:`Scheduler`: the host
    order is shuffled under ``PCG64(batch_index)`` and the first
    ``mix.total_nodes`` entries are taken.  ``uniform_hosts=True``
    asserts every entry is equal (a homogeneous cluster); the shuffle is
    then the identity on every physical input, so it is skipped and a
    slice of the caller's array is bound directly (it must be treated as
    read-only).  Only the never-recorded ``node_ids`` differ.

    ``budget_w`` is the budget quoted on fault-free launches and the base
    of the fault timeline; ``batch_budget_w`` the fault-adjusted budget
    in force at launch.  The noise seed is ``batch_index`` (``run_seed``
    ``None``) or derived from ``(run_seed, batch_index)``.

    Fault-free (``fault_schedule`` ``None`` or empty), characterization
    and caps come from the ``planner`` memo.  Under an active schedule
    the caps come from the
    :func:`~repro.faults.degradation.plan_with_degradation` ladder at
    ``batch_budget_w``: a sensor dropout at ``clock`` blinds
    characterization (the clamp tier), and the schedule's
    engine-applicable events are re-clocked into ``engine_faults``.
    """
    mix = WorkloadMix(
        name=f"batch-{batch_index}",
        jobs=tuple(r.to_job() for r in admitted),
    )
    n = mix.total_nodes
    if n > len(host_efficiencies):
        raise ValueError(
            f"mix {mix.name!r} needs {n} nodes but the partition has "
            f"{len(host_efficiencies)}"
        )
    if uniform_hosts:
        scheduled = ScheduledMix.trusted(
            mix, _identity_order(n), host_efficiencies[:n]
        )
    else:
        eff = np.asarray(host_efficiencies, dtype=float)
        order = np.arange(len(eff))
        # Same stream as ``default_rng(batch_index)`` (an int seed is
        # handed straight to PCG64) but skips default_rng's
        # seed-normalisation layer — measurable at thousands of batches
        # per shift.
        np.random.Generator(np.random.PCG64(batch_index)).shuffle(order)
        node_ids = order[:n]
        scheduled = ScheduledMix.trusted(mix, node_ids, eff[node_ids])
    if run_seed is None:
        batch_seed = batch_index
    else:
        from repro.parallel.seeding import child_seed

        batch_seed = child_seed(run_seed, "site-batch", batch_index)
    if planner is None:
        planner = BatchPlanner(manager, policy)
    tier, backoff_s, engine_faults = "none", 0.0, None
    if fault_schedule is None or not fault_schedule.active:
        fault_schedule = None
        _, effective_caps = planner.plan(scheduled, budget_w)
    else:
        from repro.faults.degradation import plan_with_degradation

        blinded = bool(fault_schedule.sensor_dropout_at(clock))
        char = None if blinded else planner.characterization(scheduled)
        plan = plan_with_degradation(
            policy, batch_budget_w, characterization=char,
            host_count=n,
            min_cap_w=manager.model.power_model.min_cap_w,
            tdp_w=manager.model.power_model.tdp_w,
            config=degradation,
        )
        tier, backoff_s = plan.tier, plan.backoff_s
        caps = plan.caps_w
        if char is not None and plan.tier == "replan" \
                and policy.application_aware:
            caps = apply_job_runtime(char, caps)
        effective_caps = np.asarray(caps, dtype=float)
        engine_faults = fault_schedule.engine_slice(clock)
    return PlannedBatch(
        clock=clock,
        batch_index=batch_index,
        decision=decision,
        scheduled=scheduled,
        effective_caps=effective_caps,
        batch_seed=int(batch_seed),
        policy=policy,
        budget_w=float(budget_w),
        batch_budget_w=float(batch_budget_w),
        quarantined=quarantined,
        tier=tier,
        backoff_s=backoff_s,
        fault_schedule=fault_schedule,
        reaction_s=reaction_s,
        engine_faults=engine_faults,
    )


#: Memoised telemetry instrument handles for :func:`finish_planned_batch`
#: — looked up once per registry generation instead of four name lookups
#: per batch (thousands of batches per streamed shift).
_FINISH_INSTRUMENTS: Optional[tuple] = None


def _finish_instruments(registry) -> tuple:
    global _FINISH_INSTRUMENTS
    cached = _FINISH_INSTRUMENTS
    if cached is None or cached[0] is not registry \
            or cached[1] != registry.generation:
        cached = (
            registry,
            registry.generation,
            registry.gauge("manager.site.utilization"),
            registry.histogram("manager.site.batch_duration_s"),
            registry.counter("manager.site.batches"),
            registry.counter("manager.site.jobs_completed"),
        )
        _FINISH_INSTRUMENTS = cached
    return cached


def finish_planned_batch(planned: PlannedBatch, result,
                         scalars: tuple) -> BatchExecution:
    """Stage 3: fold one simulated row back into a :class:`BatchExecution`.

    Duration is the job critical path plus the ladder's ``backoff_s``
    (zero on fault-free batches); then come the record fields, the
    completion clocks, and the per-batch telemetry.  A batch planned
    under an active ``fault_schedule`` also gets its compliance
    accounting: overshoot against the launch budget from the iteration
    power trace, plus the reaction window of budget drops landing
    mid-batch, charged at the batch's mean draw until the actuator
    responds.

    ``scalars`` is ``(job_elapsed_s, duration, mean_power, energy)`` for
    this row — :func:`execute_planned_batches` derives them for a whole
    group in four vectorised reductions whose per-row values are
    element-identical to the result's own property chain (same summands,
    same order, exact max).
    """
    backoff_s = planned.backoff_s
    elapsed, duration, mean_power_w, energy_j = scalars
    duration = duration + backoff_s
    clock = planned.clock
    planned_overshoot_ws = 0.0
    overshoot_ws = 0.0
    fault_schedule = planned.fault_schedule
    if fault_schedule is not None:
        from repro.faults.schedule import FaultKind

        planned_overshoot_ws = result.budget_overshoot_watt_seconds(
            planned.batch_budget_w
        )
        overshoot_ws = planned_overshoot_ws
        for event in fault_schedule.of_kind(FaultKind.BUDGET_CHANGE):
            if clock < event.time_s < clock + duration:
                dipped = fault_schedule.budget_at(
                    max(event.time_s, event.end_s), planned.budget_w
                )
                window = min(
                    planned.reaction_s, clock + duration - event.time_s
                )
                overshoot_ws += max(0.0, mean_power_w - dipped) * window
    record = BatchRecord(
        start_s=clock,
        end_s=clock + duration,
        admitted=planned.decision.admitted,
        deferred=planned.decision.deferred,
        mean_power_w=mean_power_w,
        energy_j=energy_j,
        budget_w=float(planned.batch_budget_w),
        degradation_tier=planned.tier,
        quarantined=planned.quarantined,
        planned_overshoot_ws=planned_overshoot_ws,
        overshoot_ws=overshoot_ws,
        backoff_s=backoff_s,
    )
    if enabled():
        _, _, gauge, histogram, batches, jobs = _finish_instruments(
            get_registry()
        )
        utilization = mean_power_w / planned.batch_budget_w
        gauge.set(utilization)
        histogram.observe(duration)
        batches.inc()
        jobs.inc(len(result.job_names))
        emit(
            "manager.site", "batch_complete",
            batch=planned.batch_index, policy=planned.policy.name,
            admitted=len(planned.decision.admitted),
            deferred=len(planned.decision.deferred),
            duration_s=duration,
            mean_power_w=float(mean_power_w),
            utilization=utilization,
        )
    # The ladder's decision latency delays the launch, so it is charged
    # to every job's completion: elapsed + backoff keeps the float
    # operation order of ``duration`` and lands the critical-path job
    # exactly on ``record.end_s``.
    completions = tuple(clock + (float(e) + backoff_s) for e in elapsed)
    return BatchExecution(
        record=record,
        job_names=tuple(result.job_names),
        completion_s=completions,
    )


class ExecutedBatches(list):
    """The executions of :func:`execute_planned_batches`, in input order.

    ``passes`` is the number of stacked engine passes that produced
    them — the executor's own grouping, reported so callers need not
    recompute it.
    """

    passes: int = 0


def execute_planned_batches(
    planned: Sequence[PlannedBatch],
    manager: PowerManager,
    noise_std: float,
) -> ExecutedBatches:
    """Stage 2: simulate all planned batches in grouped vectorised passes.

    Batches are grouped by job block structure (``job_boundaries``) and
    iteration count — the preconditions of
    :func:`~repro.sim.batch.simulate_layout_batch` — and each group runs
    as one ``(S, hosts)`` engine pass, so co-resident batches (from one
    rolling site or, in the fused facility engine, from many clusters)
    share a pass.  A batch carrying ``engine_faults`` runs as a pass of
    its own with that schedule in its
    :class:`~repro.sim.execution.SimulationOptions`.  Per-row
    bit-identity to a serial ``simulate_mix`` call makes grouping
    invisible in the results: only wall clock changes.  Executions come
    back in input order.
    """
    from repro.sim.batch import simulate_layout_batch

    groups: Dict[tuple, List[int]] = {}
    for i, batch in enumerate(planned):
        key = (
            i if batch.engine_faults is not None else -1,
            batch.mix.layout().job_boundaries.tobytes(),
            batch.mix.common_iterations(),
        )
        groups.setdefault(key, []).append(i)
    results: List[object] = [None] * len(planned)
    scalars: List[Optional[tuple]] = [None] * len(planned)
    with span("manager.site.batched_step", batches=len(planned),
              groups=len(groups)):
        for indices in groups.values():
            rows = [planned[i] for i in indices]
            group_results = simulate_layout_batch(
                [b.mix for b in rows],
                np.stack([b.effective_caps for b in rows]),
                np.stack([b.scheduled.efficiencies for b in rows]),
                manager.model,
                SimulationOptions(noise_std=noise_std,
                                  fault_schedule=rows[0].engine_faults),
                seeds=[b.batch_seed for b in rows],
                policy_names=[b.policy.name for b in rows],
                budgets_w=[b.batch_budget_w for b in rows],
            )
            # Group-wide derived scalars: each row of these reductions
            # sums/maxes exactly the elements the per-row property chain
            # (job_elapsed_s / mean_system_power_w / total_energy_j)
            # would, in the same order, so the values are bit-identical
            # — four numpy calls replace four per batch.
            elapsed = np.stack(
                [r.iteration_times_s for r in group_results]
            ).sum(axis=1)
            duration = elapsed.max(axis=1)
            mean_power = np.stack(
                [r.host_mean_power_w for r in group_results]
            ).sum(axis=1)
            energy = np.stack(
                [r.host_energy_j for r in group_results]
            ).sum(axis=1)
            for row, (i, result) in enumerate(zip(indices, group_results)):
                results[i] = result
                scalars[i] = (
                    elapsed[row], float(duration[row]),
                    float(mean_power[row]), float(energy[row]),
                )
    executions = ExecutedBatches(
        finish_planned_batch(batch, result, scalar)
        for batch, result, scalar in zip(planned, results, scalars)
    )
    executions.passes = len(groups)
    return executions


def run_site_simulation(
    arrivals: Sequence[Arrival],
    cluster: Cluster,
    policy: Policy,
    budget_w: float,
    admission: Optional[PowerAwareAdmission] = None,
    manager: Optional[PowerManager] = None,
    noise_std: float = 0.004,
    max_batches: int = 100,
    run_seed: Optional[int] = None,
    fault_schedule=None,
    degradation=None,
    reaction_s: float = 1.0,
) -> SiteSimulationResult:
    """Run the arrival stream to completion (or the batch limit).

    Jobs are admitted in batches whenever the cluster is free; a job that
    can never fit (its own estimate exceeds the budget or the cluster) is
    reported in ``never_admitted`` rather than looping forever.  Jobs
    still pending (or unarrived) when the ``max_batches`` round limit
    cuts the shift short are reported separately in ``truncated`` — they
    are unfinished work, not admission rejections.

    ``run_seed`` selects the noise stream for the whole shift: ``None``
    keeps the legacy per-batch seeds (the batch index), while an integer
    derives each batch's seed from ``(run_seed, batch index)`` via
    ``SeedSequence`` — the knob :func:`repro.parallel.tasks.site_replays`
    uses to replay one arrival stream under independent noise.

    ``fault_schedule`` (a :class:`~repro.faults.schedule.FaultSchedule`,
    ``None`` or empty = fault-free) replays facility/hardware faults
    against the shift; ``degradation`` is the optional
    :class:`~repro.faults.degradation.DegradationConfig` for the planning
    ladder, and ``reaction_s`` the actuation window charged when a budget
    drops *mid-batch* before the next admission round can re-plan
    (overshoot during that window is recorded in
    ``BatchRecord.overshoot_ws``).

    Each round's batch is executed as the one-row case of
    :func:`execute_planned_batches` and sent back into
    :func:`shift_rounds`.
    """
    ensure_positive(budget_w, "budget_w")
    manager = manager if manager is not None else PowerManager()
    injecting = fault_schedule is not None and fault_schedule.active
    with span("manager.site.run", policy=policy.name,
              budget_w=float(budget_w), arrivals=len(arrivals),
              hosts=len(cluster), injecting=injecting) as trace_sp:
        rounds = shift_rounds(
            arrivals, cluster, policy, budget_w,
            admission=admission, manager=manager, max_batches=max_batches,
            run_seed=run_seed, fault_schedule=fault_schedule,
            degradation=degradation, reaction_s=reaction_s,
        )
        try:
            planned = next(rounds)
            while True:
                planned = rounds.send(execute_planned_batches(
                    [planned], manager, noise_std
                )[0])
        except StopIteration as stop:
            result = stop.value
        if trace_sp is not None:
            trace_sp.set_attribute("batches", len(result.batches))
            trace_sp.set_attribute("completed", len(result.completed))
            trace_sp.set_attribute("makespan_s", result.makespan_s)
    return result


def shift_rounds(
    arrivals: Sequence[Arrival],
    cluster: Cluster,
    policy: Policy,
    budget_w: float,
    *,
    admission: Optional[PowerAwareAdmission] = None,
    manager: Optional[PowerManager] = None,
    max_batches: int = 100,
    run_seed: Optional[int] = None,
    fault_schedule=None,
    degradation=None,
    reaction_s: float = 1.0,
    planner: Optional[BatchPlanner] = None,
):
    """The shift loop as a resumable round generator.

    Every executable admission round plans its batch via
    :func:`plan_admitted_batch` over the schedulable hosts (the whole
    cluster, or its healthy rows while hosts are failed), **yields** the
    :class:`PlannedBatch` to its caller, and receives the
    :class:`BatchExecution` back through ``send()``.
    :func:`run_site_simulation` sends back a one-row
    :func:`execute_planned_batches` pass; the fused facility engine
    drives one generator per cluster in lockstep and fuses the yielded
    batches of all clusters into shared stacked passes.  Control flow,
    RNG draws, seeds, and accumulation order live here alone, so every
    caller gets the same results.

    ``planner`` (default: a fresh one) is the memo the batches are
    planned through; the fused engine shares one across clusters.  The
    generator's return value (via ``StopIteration.value``) is the
    :class:`SiteSimulationResult`.
    """
    injecting = fault_schedule is not None and fault_schedule.active
    if injecting:
        # Clock points at which fault state can change: re-check the
        # world there when an admission round comes up empty.
        fault_boundaries = fault_schedule.boundaries()
    else:
        fault_schedule = None
    if not arrivals:
        raise ValueError("need at least one arrival")
    # JobRequest carries its lifecycle state, so submitting the caller's
    # objects would leave them COMPLETED afterwards and a replay of the
    # same arrival stream would see nothing pending.  Submit fresh copies.
    arrivals = [
        dataclasses.replace(a, request=dataclasses.replace(a.request))
        for a in sorted(arrivals, key=lambda a: a.time_s)
    ]
    manager = manager if manager is not None else PowerManager()
    admission = admission if admission is not None else PowerAwareAdmission(
        model=manager.model
    )
    if planner is None:
        planner = BatchPlanner(manager, policy)
    efficiencies = cluster.efficiencies
    uniform_hosts = bool((efficiencies == efficiencies[0]).all())

    queue = JobQueue()
    arrival_time: Dict[str, float] = {}
    # Cursor into the sorted stream — O(1) per arrival, where the
    # historical list.pop(0) walked the whole tail every admission.
    stream_pos = 0
    clock = 0.0
    batches: List[BatchRecord] = []
    completed: List[str] = []
    failed: List[str] = []
    turnaround: Dict[str, float] = {}

    for _ in range(max_batches):
        # Admit everything that has arrived by the current clock; if the
        # queue is empty, jump to the next arrival.
        while stream_pos < len(arrivals) \
                and arrivals[stream_pos].time_s <= clock:
            arrival = arrivals[stream_pos]
            stream_pos += 1
            queue.submit(arrival.request)
            arrival_time[arrival.request.name] = arrival.time_s
        if not queue.pending():
            if stream_pos >= len(arrivals):
                break
            clock = arrivals[stream_pos].time_s
            continue

        # Query the fault timeline at the site clock.  Fault-free these
        # stay the caller's budget and the full cluster.
        batch_budget_w = budget_w
        schedulable = efficiencies
        quarantined: Tuple[int, ...] = ()
        if injecting:
            batch_budget_w = fault_schedule.budget_at(clock, budget_w)
            failed_hosts = fault_schedule.failed_hosts_at(clock)
            if failed_hosts:
                quarantined = tuple(sorted(failed_hosts))
                schedulable = efficiencies[[
                    i for i in range(len(efficiencies))
                    if i not in failed_hosts
                ]]

        can_admit = len(schedulable) > 0 and batch_budget_w > 0
        decision = admission.decide(
            queue, batch_budget_w, nodes_available=len(schedulable),
            mark=True,
        ) if can_admit else None
        if decision is None or not decision.admitted:
            if injecting:
                # The dip may pass: advance to the next fault boundary
                # and retry admission there instead of failing the job.
                upcoming = [t for t in fault_boundaries if t > clock]
                if upcoming:
                    clock = upcoming[0]
                    continue
            # Nothing fits: drop the head-of-queue job as unschedulable
            # (its estimate alone exceeds capacity) and try again.
            stuck = queue.pending()[0]
            queue.mark(stuck.name, JobState.FAILED)
            failed.append(stuck.name)
            continue

        execution = yield plan_admitted_batch(
            clock=clock,
            batch_index=len(batches),
            admitted=[queue.get(name) for name in decision.admitted],
            decision=decision,
            host_efficiencies=schedulable,
            policy=policy,
            budget_w=budget_w,
            batch_budget_w=batch_budget_w,
            quarantined=quarantined,
            manager=manager,
            run_seed=run_seed,
            planner=planner,
            uniform_hosts=uniform_hosts,
            fault_schedule=fault_schedule,
            degradation=degradation,
            reaction_s=reaction_s,
        )
        batches.append(execution.record)
        for name, completion in zip(execution.job_names,
                                    execution.completion_s):
            queue.mark(name, JobState.RUNNING)
            queue.mark(name, JobState.COMPLETED)
            completed.append(name)
            turnaround[name] = completion - arrival_time[name]
        clock = execution.record.end_s

    truncated = tuple(r.name for r in queue.pending()) + tuple(
        a.request.name for a in arrivals[stream_pos:]
    )
    result = SiteSimulationResult(
        policy_name=policy.name,
        budget_w=float(budget_w),
        batches=tuple(batches),
        completed=tuple(completed),
        never_admitted=tuple(failed),
        job_turnaround_s=turnaround,
        fault_schedule_name=fault_schedule.name if injecting else "",
        truncated=truncated,
    )
    if enabled():
        registry = get_registry()
        registry.histogram("manager.site.makespan_s").observe(result.makespan_s)
        emit(
            "manager.site", "simulation_complete",
            policy=policy.name, batches=len(batches),
            completed=len(completed), never_admitted=len(result.never_admitted),
            makespan_s=result.makespan_s,
            mean_turnaround_s=result.mean_turnaround_s(),
        )
    return result
