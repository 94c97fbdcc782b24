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
Every admitted batch, in every site loop, takes the same three stages,
each over a whole admission pass as columns: :func:`plan_admitted_batch`
schedules a pass's :class:`Launch` rows onto their schedulable hosts and
plans their caps into one :class:`PlannedPass` (memoised through a
:class:`BatchPlanner`, or through the degradation ladder under faults;
seeds from a :class:`~repro.parallel.seeding.BlockSeeds`);
:func:`execute_planned_batches` runs the rows of any number of passes
through grouped stacked engine passes and reads each row's scalars from
the engine tensors; and :func:`finish_planned_batch` folds each row into
its batch record and execution, in row order.  The loop that admits
and launches them is written once, as the event engine of
:mod:`repro.stream.engine`: :func:`run_site_simulation` runs its serial
mode (one batch at a time, one-row passes), the fused facility engine
(:mod:`repro.hierarchy.fused`) drives one serial engine per cluster in
lockstep and fuses their passes, and the rolling mode plans all launch
groups of an admission pass as one pass.

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

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.characterization.mix_characterization import characterize_mix
from repro.core.policy import Policy
from repro.manager.admission import PowerAwareAdmission
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobRequest
from repro.manager.scheduler import ScheduledMix
from repro.hardware.cluster import Cluster
from repro.sim.execution import SimulationOptions
from repro.telemetry import emit, enabled, get_registry, span
from repro.workload.job import WorkloadMix, validate_job_names

if TYPE_CHECKING:  # imported lazily: the repro.parallel package pulls in
    # multiprocessing, which a site loop's importers should not pay for
    from repro.parallel.seeding import BlockSeeds

__all__ = [
    "Arrival",
    "BatchRecord",
    "BatchExecution",
    "BatchPlanner",
    "ExecutedBatches",
    "Launch",
    "PlannedPass",
    "SiteSimulationResult",
    "batch_seeds",
    "execute_planned_batches",
    "finish_planned_batch",
    "plan_admitted_batch",
    "run_site_simulation",
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
    """One admitted batch, executed — the unit every site loop consumes.

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
    #: Jobs still pending (or not yet arrived) when the shift had
    #: launched its ``max_batches`` batches — unfinished work, *not* jobs
    #: the admission controller rejected as unschedulable.
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


class Launch(NamedTuple):
    """One launch row of an admission pass: an admitted batch to plan.

    ``requests`` are the batch's jobs in admission order, ``deferred``
    the names the admitting pass left pending, and ``host_efficiencies``
    the efficiencies of the schedulable hosts — the whole partition, its
    healthy rows, or a free subset — in ascending host-id order.
    ``budget_w`` is the budget quoted on fault-free launches and the
    base of the fault timeline; ``batch_budget_w`` the fault-adjusted
    budget in force at launch.
    """

    batch_index: int
    deferred: Tuple[str, ...]
    requests: Sequence[JobRequest]
    host_efficiencies: np.ndarray
    budget_w: float
    batch_budget_w: float
    quarantined: Tuple[int, ...] = ()


@dataclass
class PlannedPass:
    """An admission pass's batches, scheduled and planned, as columns.

    Every batch runs through three stages: :func:`plan_admitted_batch`
    plans a whole pass into one of these, :func:`execute_planned_batches`
    simulates any number of passes in grouped stacked engine passes, and
    :func:`finish_planned_batch` turns each simulated row into the
    :class:`BatchExecution` a site loop consumes.  A single batch is the
    one-row case.

    Row ``i`` is ``launches[i]``: its job names, the planner's shared
    job-shape entry (layout, iteration count, grouping key), its caps,
    host efficiencies and node ids, its noise seed, and its fault-replay
    state — the degradation-ladder ``tiers`` and ``backoffs`` and the
    ``engine_faults`` re-clocked to the launch (``None`` when no cap or
    noise fault can touch the run).  ``fault_schedule`` is the active
    schedule that stage 3's compliance accounting reads, ``None`` on
    fault-free passes.
    """

    clock: float
    policy: Policy
    launches: Sequence[Launch]
    job_names: List[Tuple[str, ...]]
    shapes: List["_Shape"]
    caps: List[np.ndarray]
    efficiencies: List[np.ndarray]
    node_ids: List[np.ndarray]
    seeds: List[int]
    tiers: List[str]
    backoffs: List[float]
    engine_faults: List[object]
    fault_schedule: object = None
    reaction_s: float = 1.0
    _mixes: Dict[int, WorkloadMix] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.launches)

    def mix(self, row: int) -> WorkloadMix:
        """Row ``row``'s batch as a workload mix (one entry per job).

        Built on first request, and only then: a memo hit needs none.
        Once the row's shape is planned, the mix's layout memo is primed
        from it, so same-shape batches share one read-only layout (names
        appear nowhere in a :class:`HostLayout`).
        """
        mix = self._mixes.get(row)
        if mix is None:
            launch = self.launches[row]
            mix = WorkloadMix(
                name=f"batch-{launch.batch_index}",
                jobs=tuple(r.to_job() for r in launch.requests),
            )
            self._mixes[row] = mix
        if row < len(self.shapes):
            shape = self.shapes[row]
            object.__setattr__(mix, "_layout", shape.layout)
            object.__setattr__(mix, "_common_iterations", shape.iterations)
        return mix


class _Shape:
    """A :class:`BatchPlanner` memo entry for one tuple of job shapes.

    Holds the shared read-only layout, the common iteration count, the
    executor's grouping key ``(job_boundaries bytes, iterations)`` and
    the per-efficiencies characterization/caps memo.
    """

    __slots__ = ("layout", "iterations", "group", "by_eff")

    def __init__(self, mix: WorkloadMix) -> None:
        self.layout = mix.layout()
        self.iterations = mix.common_iterations()
        self.group = (self.layout.job_boundaries.tobytes(), self.iterations)
        self.by_eff: Dict[bytes, dict] = {}


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
    :meth:`PowerManager.plan` chain would produce (the caps to program,
    balancer-shaped for an application-aware policy), because that is
    exactly what populated the memo.  A miss builds the batch's
    :class:`ScheduledMix` through ``scheduled()``; a hit builds nothing.  Each memo level holds at most
    :data:`PLANNER_MEMO_LIMIT` entries, so a long-lived engine on
    heterogeneous hosts (where nearly every efficiency vector is new)
    stays bounded.
    """

    def __init__(self, manager: PowerManager, policy: Policy) -> None:
        self.manager = manager
        self.policy = policy
        self._memo: Dict[tuple, _Shape] = {}
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
        for shape in self._memo.values():
            shape.by_eff.clear()
        self._char_entries = self._caps_entries = 0

    def _clear_caps(self) -> None:
        for shape in self._memo.values():
            for sub in shape.by_eff.values():
                sub["caps"].clear()
        self._caps_entries = 0

    def shape(self, key: tuple, mix: Callable[[], WorkloadMix]) -> _Shape:
        """The memo entry of job-shape tuple ``key`` (a batch's jobs'
        ``(config, node_count, iterations)``), created from ``mix()`` on
        first sight."""
        shape = self._memo.get(key)
        if shape is None:
            if len(self._memo) >= PLANNER_MEMO_LIMIT:
                self._memo.clear()
                self._char_entries = self._caps_entries = 0
            shape = _Shape(mix())
            self._memo[key] = shape
        return shape

    def _lookup(self, shape: _Shape, efficiencies: np.ndarray,
                scheduled: Callable[[], ScheduledMix]) -> dict:
        """The per-(shape, efficiencies) memo slot, characterized."""
        eff_key = efficiencies.tobytes()
        sub = shape.by_eff.get(eff_key)
        if sub is None:
            self.char_misses += 1
            if self._char_entries >= PLANNER_MEMO_LIMIT:
                self._clear_characterizations()
            built = scheduled()
            char = characterize_mix(
                built.mix, built.efficiencies, self.manager.model
            )
            sub = {"char": char, "caps": {}}
            shape.by_eff[eff_key] = sub
            self._char_entries += 1
        else:
            self.char_hits += 1
        return sub

    def characterization(self, shape: _Shape, efficiencies: np.ndarray,
                         scheduled: Callable[[], ScheduledMix]):
        """The memoised characterization alone (no cap allocation).

        Fault-replay batches plan their caps through the degradation
        ladder rather than the per-budget caps memo (the faulted budget
        varies per epoch), but their characterization is the same pure
        function of (shapes, efficiencies, model).  The returned object
        may carry the ``mix_name`` of the batch that populated the memo.
        """
        return self._lookup(shape, efficiencies, scheduled)["char"]

    def plan(self, shape: _Shape, efficiencies: np.ndarray, budget_w: float,
             scheduled: Callable[[], ScheduledMix]) -> np.ndarray:
        """Characterize + allocate, memoised.  Returns the read-only caps."""
        sub = self._lookup(shape, efficiencies, scheduled)
        budget_key = float(budget_w)
        caps = sub["caps"].get(budget_key)
        if caps is None:
            _, caps = self.manager.plan(
                scheduled(), self.policy, budget_w, sub["char"]
            )
            caps = np.asarray(caps, dtype=float)
            caps.setflags(write=False)
            if self._caps_entries >= PLANNER_MEMO_LIMIT:
                self._clear_caps()
            sub["caps"][budget_key] = caps
            self._caps_entries += 1
        return caps


def batch_seeds(run_seed: Optional[int]) -> Optional[BlockSeeds]:
    """The noise seeds of a site loop's batches, by batch index.

    Batch ``i`` is seeded with ``child_seed(run_seed, "site-batch", i)``,
    derived a block of indices at a time; ``None`` (``run_seed`` ``None``)
    seeds batch ``i`` with ``i`` itself.
    """
    if run_seed is None:
        return None
    from repro.parallel.seeding import BlockSeeds

    return BlockSeeds(run_seed, "site-batch")


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
    launches: Sequence[Launch],
    policy: Policy,
    manager: PowerManager,
    planner: Optional[BatchPlanner] = None,
    seeds: Optional[BlockSeeds] = None,
    uniform_hosts: bool = False,
    fault_schedule=None,
    degradation=None,
    reaction_s: float = 1.0,
) -> PlannedPass:
    """Stage 1: schedule and plan one admission pass's batches at ``clock``.

    Each launch is scheduled as :meth:`Scheduler.allocate` would, without
    building a :class:`Cluster` or :class:`Scheduler`: its host order is
    shuffled under ``PCG64(batch_index)`` and the first ``n`` entries
    (``n`` = the batch's node total) are taken.  ``uniform_hosts=True``
    asserts every efficiency is equal (a homogeneous cluster); the
    shuffle is then the identity on every physical input, so it is
    skipped and a slice of the caller's array is bound directly (it must
    be treated as read-only).  Only the never-recorded ``node_ids``
    differ.  A launch with no jobs, duplicate job names or more nodes
    than its hosts is rejected.

    The noise seed of batch ``i`` is ``seeds[i]`` (see
    :func:`batch_seeds`), or ``i`` itself when ``seeds`` is ``None``.

    Fault-free (``fault_schedule`` ``None`` or empty), caps come from the
    ``planner`` memo, looked up once per distinct (shapes, budget) on
    uniform hosts; a memo hit builds no mix.  Under an active schedule
    the caps come from the
    :func:`~repro.faults.degradation.plan_with_degradation` ladder at
    each launch's ``batch_budget_w``: a sensor dropout at ``clock``
    blinds characterization (the clamp tier), and the schedule's
    engine-applicable events are re-clocked into ``engine_faults``.
    """
    if planner is None:
        planner = BatchPlanner(manager, policy)
    if fault_schedule is not None and not fault_schedule.active:
        fault_schedule = None
    rows = len(launches)
    planned = PlannedPass(
        clock=clock, policy=policy, launches=launches, job_names=[],
        shapes=[], caps=[], efficiencies=[], node_ids=[], seeds=[],
        tiers=["none"] * rows, backoffs=[0.0] * rows,
        engine_faults=[None] * rows, fault_schedule=fault_schedule,
        reaction_s=reaction_s,
    )
    if fault_schedule is not None:
        from repro.faults.degradation import plan_with_degradation

        blinded = bool(fault_schedule.sensor_dropout_at(clock))
        planned.engine_faults = [fault_schedule.engine_slice(clock)] * rows
        power_model = manager.model.power_model
    # (shapes, budget) -> (shape, caps, node ids, efficiencies): the
    # uniform-host rows of one pass that share a plan.
    same: Dict[tuple, tuple] = {}
    for row, launch in enumerate(launches):
        requests = launch.requests
        names = tuple(r.name for r in requests)
        validate_job_names(names)
        key = tuple((r.config, r.node_count, r.iterations) for r in requests)
        hit = same.get((key, launch.budget_w)) if uniform_hosts \
            and fault_schedule is None else None
        if hit is not None:
            shape, caps, node_ids, eff = hit
            planned.shapes.append(shape)
        else:
            n = sum(r.node_count for r in requests)
            hosts = launch.host_efficiencies
            if n > len(hosts):
                raise ValueError(
                    f"mix 'batch-{launch.batch_index}' needs {n} nodes but "
                    f"the partition has {len(hosts)}"
                )
            if uniform_hosts:
                node_ids, eff = _identity_order(n), hosts[:n]
            else:
                order = np.arange(len(hosts))
                # Same stream as ``default_rng(batch_index)`` (an int seed
                # is handed straight to PCG64) but skips default_rng's
                # seed-normalisation layer.
                np.random.Generator(
                    np.random.PCG64(launch.batch_index)
                ).shuffle(order)
                node_ids = order[:n]
                eff = np.asarray(hosts, dtype=float)[node_ids]
            shape = planner.shape(key, lambda: planned.mix(row))
            planned.shapes.append(shape)

            def scheduled(row=row, node_ids=node_ids,
                          eff=eff) -> ScheduledMix:
                return ScheduledMix.trusted(planned.mix(row), node_ids, eff)

            if fault_schedule is None:
                caps = planner.plan(shape, eff, launch.budget_w, scheduled)
                if uniform_hosts:
                    same[(key, launch.budget_w)] = (shape, caps, node_ids,
                                                    eff)
            else:
                char = None if blinded else planner.characterization(
                    shape, eff, scheduled
                )
                plan = plan_with_degradation(
                    policy, launch.batch_budget_w, characterization=char,
                    host_count=n, min_cap_w=power_model.min_cap_w,
                    tdp_w=power_model.tdp_w, config=degradation,
                )
                planned.tiers[row] = plan.tier
                planned.backoffs[row] = plan.backoff_s
                caps = np.asarray(plan.caps_w, dtype=float)
        planned.job_names.append(names)
        planned.caps.append(caps)
        planned.efficiencies.append(eff)
        planned.node_ids.append(node_ids)
        planned.seeds.append(
            launch.batch_index if seeds is None else seeds[launch.batch_index]
        )
    return planned


def finish_planned_batch(planned: PlannedPass,
                         rows: Sequence[tuple]) -> List[BatchExecution]:
    """Stage 3: fold a pass's simulated rows into :class:`BatchExecution`\\ s.

    ``rows[i]`` is ``(job_elapsed_s, duration, mean_power, energy,
    result)`` for row ``i`` — :func:`execute_planned_batches` reads them
    for a whole group from the engine tensors in four vectorised
    reductions whose per-row values are element-identical to a
    :class:`~repro.sim.results.MixRunResult`'s own property chain (same
    summands, same order, exact max).  ``result`` is that
    :class:`MixRunResult`, built only for rows of a fault-replay pass.

    Per batch, in row order: duration is the job critical path plus the
    ladder's ``backoff_s`` (zero on fault-free batches); then come the
    record fields, the completion clocks, and the per-batch
    ``batch_complete`` event (duration and utilization); the batch and
    job counters move once per pass.  A batch planned under an active
    ``fault_schedule`` also gets its compliance accounting: overshoot
    against the launch budget from the iteration power trace, plus the
    reaction window of budget drops landing mid-batch, charged at the
    batch's mean draw until the actuator responds.
    """
    clock = planned.clock
    fault_schedule = planned.fault_schedule
    if fault_schedule is not None:
        from repro.faults.schedule import FaultKind

        drops = fault_schedule.of_kind(FaultKind.BUDGET_CHANGE)
    telemetry = enabled()
    if telemetry:
        policy_name = planned.policy.name
    executions: List[BatchExecution] = []
    for launch, names, tier, backoff_s, row in zip(
            planned.launches, planned.job_names, planned.tiers,
            planned.backoffs, rows):
        elapsed, duration, mean_power_w, energy_j, result = row
        duration = duration + backoff_s
        planned_overshoot_ws = 0.0
        overshoot_ws = 0.0
        if fault_schedule is not None:
            planned_overshoot_ws = result.budget_overshoot_watt_seconds(
                launch.batch_budget_w
            )
            overshoot_ws = planned_overshoot_ws
            for event in drops:
                if clock < event.time_s < clock + duration:
                    dipped = fault_schedule.budget_at(
                        max(event.time_s, event.end_s), launch.budget_w
                    )
                    window = min(
                        planned.reaction_s, clock + duration - event.time_s
                    )
                    overshoot_ws += max(0.0, mean_power_w - dipped) * window
        record = BatchRecord(
            start_s=clock,
            end_s=clock + duration,
            admitted=names,
            deferred=launch.deferred,
            mean_power_w=mean_power_w,
            energy_j=energy_j,
            budget_w=float(launch.batch_budget_w),
            degradation_tier=tier,
            quarantined=launch.quarantined,
            planned_overshoot_ws=planned_overshoot_ws,
            overshoot_ws=overshoot_ws,
            backoff_s=backoff_s,
        )
        if telemetry:
            emit(
                "manager.site", "batch_complete",
                batch=launch.batch_index, policy=policy_name,
                admitted=len(names),
                deferred=len(launch.deferred),
                duration_s=duration,
                mean_power_w=mean_power_w,
                utilization=mean_power_w / launch.batch_budget_w,
            )
        # The ladder's decision latency delays the launch, so it is
        # charged to every job's completion: elapsed + backoff keeps the
        # float operation order of ``duration`` and lands the
        # critical-path job exactly on ``record.end_s``.
        executions.append(BatchExecution(
            record=record,
            job_names=names,
            completion_s=tuple(clock + (e + backoff_s) for e in elapsed),
        ))
    if telemetry and executions:
        registry = get_registry()
        registry.counter("manager.site.batches").inc(len(executions))
        registry.counter("manager.site.jobs_completed").inc(
            sum(len(names) for names in planned.job_names))
    return executions


class ExecutedBatches(list):
    """The executions of :func:`execute_planned_batches`, in input order.

    ``passes`` is the number of stacked engine passes that produced
    them — the executor's own grouping, reported so callers need not
    recompute it.
    """

    passes: int = 0


def execute_planned_batches(
    passes: Sequence[PlannedPass],
    manager: PowerManager,
    noise_std: float,
) -> ExecutedBatches:
    """Stage 2: simulate planned passes in grouped vectorised engine passes.

    The rows of all ``passes`` are grouped by job block structure
    (``job_boundaries``) and iteration count — the preconditions of a
    stacked ``(S, hosts)`` engine pass — so co-resident batches (from
    one rolling site or, in the fused facility engine, from many
    clusters) share a pass.  A row carrying ``engine_faults`` runs as a
    pass of its own with that schedule in its
    :class:`~repro.sim.execution.SimulationOptions`.  Per-row
    bit-identity to a serial ``simulate_mix`` call makes grouping
    invisible in the results: only wall clock changes.

    Each row's elapsed times, duration, mean power and energy are read
    straight from the engine tensors; a
    :class:`~repro.sim.results.MixRunResult` is built only for the rows
    of fault-replay passes, whose overshoot accounting reads the
    iteration power trace.  Executions come back in input order: pass
    by pass, row by row.
    """
    from repro.sim.batch import simulate_layout_rows

    options = SimulationOptions(noise_std=noise_std)
    groups: Dict[tuple, List[Tuple[int, int]]] = {}
    flat = 0
    for p, planned in enumerate(passes):
        for r, (shape, faults) in enumerate(
                zip(planned.shapes, planned.engine_faults)):
            key = (shape.group, -1 if faults is None else flat)
            groups.setdefault(key, []).append((p, r))
            flat += 1
    rows: List[List[Optional[tuple]]] = [[None] * len(planned)
                                         for planned in passes]
    with span("manager.site.batched_step", batches=flat,
              groups=len(groups)):
        for members in groups.values():
            p0, r0 = members[0]
            faults = passes[p0].engine_faults[r0]

            def describe(s: int, members=members) -> tuple:
                p, r = members[s]
                planned = passes[p]
                return (planned.mix(r), planned.policy.name,
                        float(planned.launches[r].batch_budget_w))

            out = simulate_layout_rows(
                [passes[p].shapes[r].layout for p, r in members],
                passes[p0].shapes[r0].iterations,
                np.stack([passes[p].caps[r] for p, r in members]),
                np.stack([passes[p].efficiencies[r] for p, r in members]),
                manager.model,
                options if faults is None else SimulationOptions(
                    noise_std=noise_std, fault_schedule=faults),
                [passes[p].seeds[r] for p, r in members],
                describe,
            )
            # Each row of these reductions sums/maxes exactly the
            # elements a MixRunResult's job_elapsed_s /
            # mean_system_power_w / total_energy_j would, in the same
            # order, so the values are bit-identical.
            elapsed = out.job_iter_times.sum(axis=1)
            duration = elapsed.max(axis=1).tolist()
            mean_power = out.host_mean_power.sum(axis=1).tolist()
            energy = out.host_energy.sum(axis=1).tolist()
            elapsed = elapsed.tolist()
            for s, (p, r) in enumerate(members):
                result = None if passes[p].fault_schedule is None \
                    else out.result(s, *describe(s))
                rows[p][r] = (elapsed[s], duration[s], mean_power[s],
                              energy[s], result)
    executions = ExecutedBatches()
    for planned, planned_rows in zip(passes, rows):
        executions.extend(finish_planned_batch(planned, planned_rows))
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
    reported in ``never_admitted`` rather than looping forever.  At most
    ``max_batches`` batches launch; jobs still pending (or unarrived)
    when that limit is reached are reported separately in ``truncated``
    — they are unfinished work, not admission rejections.  An empty
    arrival stream is an empty shift: no batches, and nothing completed,
    never-admitted or truncated (a rolling engine with no arrivals
    likewise returns empty stats).

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

    The shift is the event engine's serial mode
    (:class:`~repro.stream.engine.SerialSiteEngine`) run over the
    arrivals in time order.
    """
    # Imported here: the stream engine is built on this module.
    from repro.stream import SerialSiteEngine, replay_stream

    engine = SerialSiteEngine(
        cluster, policy, budget_w, admission=admission, manager=manager,
        noise_std=noise_std, run_seed=run_seed,
        fault_schedule=fault_schedule, degradation=degradation,
        reaction_s=reaction_s, max_batches=max_batches,
    )
    with span("manager.site.run", policy=policy.name,
              budget_w=float(budget_w), arrivals=len(arrivals),
              hosts=len(cluster), injecting=engine.injecting) as trace_sp:
        engine.attach_source(replay_stream(arrivals))
        engine.run()
        result = engine.result
        if trace_sp is not None:
            trace_sp.set_attribute("batches", len(result.batches))
            trace_sp.set_attribute("completed", len(result.completed))
            trace_sp.set_attribute("makespan_s", result.makespan_s)
    return result
