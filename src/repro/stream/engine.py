"""The streaming site engine: sustained load through the admission stack.

Two operating modes over one :class:`~repro.stream.events.EventLoop`:

**Replay (drain) mode** — :meth:`SiteStreamEngine.replay` drains the
arrivals into a list and runs them through
:func:`~repro.manager.site_simulation.run_site_simulation` with the
engine's settings: one batch in flight at a time on the whole
cluster, admission whenever the cluster drains.  The shift loop exists
once; replay is a way to reach it from an engine.

**Rolling mode** — the long-lived service shape of ROADMAP item 1:
multiple batches in flight, `PowerAwareAdmission` re-run on every
capacity-freed event (a batch completing, the budget moving, a fault
boundary passing) against whatever has genuinely arrived, arrivals pulled
lazily from a generator (one lookahead event in the heap), queue
backpressure via ``max_pending``, and aggregate :class:`StreamStats`
instead of per-job records when ``record_jobs=False`` — the configuration
that holds memory flat through millions of arrivals per simulated day.

In rolling mode each in-flight batch reserves its admitted-set estimate
(`decision.admitted_power_w`) out of the facility budget and is launched
with that reservation as its budget, so the sum of concurrent batch
budgets never exceeds the facility budget in force at their launches.
Every admission pass plans its launch groups through
:func:`~repro.manager.site_simulation.plan_admitted_batch` (one memoised
:class:`~repro.manager.site_simulation.BatchPlanner` per engine) and
executes them together through
:func:`~repro.manager.site_simulation.execute_planned_batches`: one
stacked ``(S, hosts)`` engine pass per job-structure group, with a batch
that carries engine-applicable faults in a pass of its own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.policy import Policy
from repro.hardware.cluster import Cluster
from repro.manager.admission import AdmissionDecision, PowerAwareAdmission
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobQueue, JobRequest, JobState
from repro.manager.site_simulation import (
    Arrival,
    BatchExecution,
    BatchPlanner,
    BatchRecord,
    SiteSimulationResult,
    execute_planned_batches,
    plan_admitted_batch,
    run_site_simulation,
)
from repro.stream.events import Event, EventKind, EventLoop
from repro.telemetry import emit, enabled, get_registry, span
from repro.units import ensure_positive

__all__ = ["StreamStats", "SiteStreamEngine"]


@dataclass
class StreamStats:
    """Aggregate counters the engine maintains in O(1) memory.

    The memory-bounded substitute for the batch call's per-job dicts:
    everything the bench and the daemon's ``stats`` op report comes from
    here, regardless of how many jobs have flowed through.
    """

    arrivals: int = 0
    rejected: int = 0
    batches: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    energy_j: float = 0.0
    overshoot_ws: float = 0.0
    turnaround_sum_s: float = 0.0
    turnaround_max_s: float = 0.0
    peak_pending: int = 0
    peak_tracked_jobs: int = 0
    peak_in_flight: int = 0
    clock_s: float = 0.0

    def mean_turnaround_s(self) -> float:
        """Mean submission-to-completion time over completed jobs."""
        if not self.jobs_completed:
            return 0.0
        return self.turnaround_sum_s / self.jobs_completed

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict view (telemetry ticks, daemon ``stats`` replies)."""
        out = dataclasses.asdict(self)
        out["mean_turnaround_s"] = self.mean_turnaround_s()
        return out


class SiteStreamEngine:
    """Event-driven site loop over the shared batch physics.

    Parameters mirror :func:`run_site_simulation` where they overlap;
    the streaming knobs:

    rolling:
        False = replay semantics (:meth:`replay` runs the batch shift
        loop); True = sustained-load semantics (concurrent batches over
        free hosts, admission on capacity-freed events).
    max_pending:
        Queue backpressure: an arrival landing while this many jobs are
        pending is rejected (counted in ``stats.rejected``; the daemon
        surfaces it as an error reply).  ``None`` = unbounded.
    record_jobs / record_batches:
        When False, per-job turnarounds / per-batch records are folded
        into :class:`StreamStats` instead of being kept — the
        bounded-memory configuration for sustained load.
    tick_interval_s:
        When set, a TELEMETRY_TICK event fires every interval of
        simulated time, emitting a ``stream.engine``/``tick`` event with
        the stats snapshot (the daemon's pub/sub feed).
    admission_interval_s:
        Rolling-mode only.  When set, admission is *quantised*: arrivals
        and capacity events schedule one deferred ADMISSION flush this
        far ahead instead of re-running admission inline, so a burst of
        events pays for one pass and co-arriving batches launch together
        (the high-rate configuration that feeds the stacked engine pass
        wide groups).  ``None`` keeps the classic admit-on-every-event
        semantics.
    per_job_batches:
        Rolling-mode only.  When True, each admitted job launches as its
        own single-job batch instead of co-scheduling one batch per
        admission pass — uniform job structure (wide vectorised groups)
        and per-job completion granularity.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: Policy,
        budget_w: float,
        admission: Optional[PowerAwareAdmission] = None,
        manager: Optional[PowerManager] = None,
        noise_std: float = 0.004,
        run_seed: Optional[int] = None,
        fault_schedule=None,
        degradation=None,
        reaction_s: float = 1.0,
        rolling: bool = False,
        max_pending: Optional[int] = None,
        record_jobs: bool = True,
        record_batches: bool = True,
        tick_interval_s: Optional[float] = None,
        admission_interval_s: Optional[float] = None,
        per_job_batches: bool = False,
    ) -> None:
        ensure_positive(budget_w, "budget_w")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive or None")
        if tick_interval_s is not None:
            ensure_positive(tick_interval_s, "tick_interval_s")
        if admission_interval_s is not None:
            ensure_positive(admission_interval_s, "admission_interval_s")
        if not rolling and (per_job_batches
                            or admission_interval_s is not None):
            raise ValueError(
                "admission_interval_s and per_job_batches are rolling-mode "
                "knobs; replay mode is pinned to the batch shift loop's "
                "semantics"
            )
        self.cluster = cluster
        self.policy = policy
        self.base_budget_w = float(budget_w)
        self.budget_w = float(budget_w)
        self.manager = manager if manager is not None else PowerManager()
        self.admission = admission if admission is not None else \
            PowerAwareAdmission(model=self.manager.model)
        self.noise_std = noise_std
        self.run_seed = run_seed
        self.fault_schedule = fault_schedule
        self.degradation = degradation
        self.reaction_s = reaction_s
        self.injecting = fault_schedule is not None and fault_schedule.active
        self.rolling = rolling
        self.max_pending = max_pending
        self.record_jobs = record_jobs
        self.record_batches = record_batches
        self.tick_interval_s = tick_interval_s
        self.admission_interval_s = admission_interval_s
        self.per_job_batches = per_job_batches

        self.loop = EventLoop()
        self.queue = JobQueue()
        self.clock = 0.0
        self.stats = StreamStats()
        self.batches: List[BatchRecord] = []
        self.completed: List[str] = []
        self.failed: List[str] = []
        self.turnaround_s: Dict[str, float] = {}
        self._arrival_time: Dict[str, float] = {}
        self._source: Optional[Iterator[Arrival]] = None
        self._batch_counter = 0
        # Rolling-mode occupancy: host ids currently free, and the watt
        # reservations of in-flight batches.
        self._free_ids: Set[int] = set(range(len(cluster)))
        self._reserved_w = 0.0
        self._in_flight = 0
        self._tick_scheduled = False
        # Slot-reused periodic events (allocation-free re-arming).
        self._tick_event: Optional[Event] = None
        self._admission_event: Optional[Event] = None
        self._admission_scheduled = False
        self._planner = BatchPlanner(self.manager, policy)
        self._host_eff = cluster.efficiencies
        # Homogeneous-cluster fast path: when every host efficiency is
        # equal, any subset's efficiency vector is a slice of the
        # cluster's, so the per-batch gather (and the physically inert
        # scheduler shuffle) can be skipped.
        eff = cluster.efficiencies
        self._uniform_hosts = bool((eff == eff[0]).all()) if len(eff) else True
        # Incremental-admission gate: set to the (unreserved watts, free
        # hosts) snapshot whenever a full admission pass deferred every
        # pending job; while capacity stays at that snapshot, a new
        # arrival only needs its own tail judged (estimates are
        # deterministic and `fits` is monotone in capacity, so the full
        # pass would re-defer the prefix identically).  Any capacity or
        # fault-state change invalidates it.
        self._blocked_key: Optional[Tuple[float, int]] = None
        # Rolling mode re-runs admission at fault boundaries as timeline
        # events; replay mode hands the schedule to the shift loop, so
        # its heap carries only arrivals.
        if self.injecting and rolling:
            for t in fault_schedule.boundaries():
                self.loop.push(t, EventKind.FAULT_BOUNDARY)

    # ------------------------------------------------------------------
    # feeding the timeline
    def attach_source(self, source: Iterator[Arrival]) -> None:
        """Feed arrivals lazily from a time-ordered iterator.

        Exactly one lookahead arrival lives in the event heap at any
        time; the next is pulled when it is delivered.
        """
        if self._source is not None:
            raise ValueError("a source is already attached")
        self._source = iter(source)
        self._pull_arrival()

    def submit(self, request: JobRequest, time_s: Optional[float] = None) -> float:
        """Schedule one job arrival (the daemon's ``submit`` op).

        Defaults to the current clock; past times are clamped to it (an
        event-driven service cannot admit into its own history).
        Returns the effective arrival time.
        """
        t = self.clock if time_s is None else max(float(time_s), self.clock)
        self.loop.push(t, EventKind.ARRIVAL, request=request)
        return t

    def set_budget(self, budget_w: float, time_s: Optional[float] = None) -> float:
        """Schedule a facility budget change (mid-stream re-planning)."""
        ensure_positive(budget_w, "budget_w")
        t = self.clock if time_s is None else max(float(time_s), self.clock)
        self.loop.push(t, EventKind.BUDGET_CHANGE, budget_w=float(budget_w))
        return t

    def _pull_arrival(self) -> None:
        assert self._source is not None
        try:
            arrival = next(self._source)
        except StopIteration:
            self._source = None
            return
        self.loop.push(arrival.time_s, EventKind.ARRIVAL,
                       request=arrival.request)

    # ------------------------------------------------------------------
    # event handlers
    def _on_arrival(self, request: JobRequest, time_s: float) -> bool:
        """Track one arrival; returns False when backpressure rejected it."""
        self.stats.arrivals += 1
        pending = self.queue.pending_count()
        if self.max_pending is not None and pending >= self.max_pending:
            self.stats.rejected += 1
            if enabled():
                emit("stream.engine", "job_rejected", name=request.name,
                     pending=pending, max_pending=self.max_pending)
            return False
        self.queue.submit(request)
        self._arrival_time[request.name] = time_s
        if pending >= self.stats.peak_pending:
            self.stats.peak_pending = pending + 1
        if len(self.queue) > self.stats.peak_tracked_jobs:
            self.stats.peak_tracked_jobs = len(self.queue)
        return True

    def _account_batch(self, execution: BatchExecution) -> None:
        """Fold one finished batch into the engine's records and stats."""
        record = execution.record
        self.stats.batches += 1
        self.stats.energy_j += record.energy_j
        self.stats.overshoot_ws += record.overshoot_ws
        if self.record_batches:
            self.batches.append(record)
        for name, completion in zip(execution.job_names,
                                    execution.completion_s):
            self.queue.mark(name, JobState.RUNNING)
            self.queue.mark(name, JobState.COMPLETED)
            turnaround = completion - self._arrival_time.pop(name)
            self.stats.jobs_completed += 1
            self.stats.turnaround_sum_s += turnaround
            self.stats.turnaround_max_s = max(
                self.stats.turnaround_max_s, turnaround
            )
            if self.record_jobs:
                self.completed.append(name)
                self.turnaround_s[name] = turnaround
            else:
                self.queue.forget(name)

    def _fail_head(self) -> None:
        stuck = self.queue.pending()[0]
        self.queue.mark(stuck.name, JobState.FAILED)
        self._arrival_time.pop(stuck.name, None)
        self.stats.jobs_failed += 1
        if self.record_jobs:
            self.failed.append(stuck.name)
        else:
            self.queue.forget(stuck.name)
        if enabled():
            emit("stream.engine", "job_failed", name=stuck.name)

    def _fault_state(self) -> Tuple[float, Tuple[int, ...], Set[int]]:
        """(budget in force, quarantined host ids, failed host-id set)."""
        if not self.injecting:
            return self.budget_w, (), set()
        budget = self.fault_schedule.budget_at(self.clock, self.budget_w)
        failed_hosts = set(self.fault_schedule.failed_hosts_at(self.clock))
        return budget, tuple(sorted(failed_hosts)), failed_hosts

    # ------------------------------------------------------------------
    # rolling mode
    def _idle(self) -> bool:
        return (self._source is None and self._in_flight == 0
                and not self.queue.pending_count())

    def _schedule_tick(self) -> None:
        if self.tick_interval_s is None or self._tick_scheduled:
            return
        t = self.clock + self.tick_interval_s
        if self._tick_event is None:
            self._tick_event = self.loop.push(t, EventKind.TELEMETRY_TICK)
        else:
            # Slot reuse: re-arm the delivered tick event instead of
            # allocating a fresh one per interval.
            self.loop.repush(self._tick_event, t)
        self._tick_scheduled = True

    def _schedule_admission_flush(self) -> None:
        """Arm the deferred ADMISSION event (quantised-admission mode)."""
        if self._admission_scheduled:
            return
        t = self.clock + self.admission_interval_s
        if self._admission_event is None:
            self._admission_event = self.loop.push(t, EventKind.ADMISSION)
        else:
            self.loop.repush(self._admission_event, t)
        self._admission_scheduled = True

    def _on_tick(self) -> None:
        self._tick_scheduled = False
        self.stats.clock_s = self.clock
        if enabled():
            registry = get_registry()
            registry.gauge("stream.engine.pending").set(
                self.queue.pending_count()
            )
            registry.gauge("stream.engine.in_flight").set(self._in_flight)
            emit("stream.engine", "tick", **self.stats.snapshot())
        if not self._idle() or self.loop:
            self._schedule_tick()

    def _split_decision(self, decision):
        """Yield ``(sub_decision, names)`` launch groups for one pass.

        Default: the whole admitted set as one co-scheduled batch (the
        classic semantics).  With ``per_job_batches`` every admitted job
        becomes its own single-job batch — uniform job structure, so the
        batched step groups wide.
        """
        if not self.per_job_batches or len(decision.admitted) <= 1:
            yield decision, decision.admitted
            return
        for name in decision.admitted:
            # Field-for-field what dataclasses.replace(decision,
            # admitted=(name,)) builds, without the per-call field
            # introspection — this runs once per admitted job.
            sub = AdmissionDecision(
                (name,), decision.deferred, decision.estimates_w,
                decision.budget_w, decision.nodes_available,
                decision.safety_margin, decision.reserved_head,
                self.queue.get(name).node_count,
            )
            yield sub, (name,)

    def _try_admit_rolling(self) -> None:
        """Admit against free hosts and unreserved budget; launch batches.

        Runs until nothing more fits — each launch frees nothing, so one
        pass per triggering event suffices; the next BATCH_COMPLETE or
        BUDGET_CHANGE re-triggers it.

        Structured as collect-then-execute: admission decisions and
        occupancy updates happen first (each launch group reserves its
        hosts and watts immediately, so successive ``decide`` calls see
        the shrunken capacity), then all collected batches execute in one
        grouped call.  Execution has no feedback into admission
        (completions only land via future BATCH_COMPLETE events), so the
        split cannot change any decision.
        """
        collected: List[Tuple] = []  # (batch_index, sub_decision, names,
        #                              host_ids, share_w, quarantined)
        while self.queue.pending_count():
            budget_now, quarantined, failed_hosts = self._fault_state()
            free_healthy = sorted(self._free_ids - failed_hosts)
            avail_w = budget_now - self._reserved_w
            if not free_healthy or avail_w <= 0:
                break
            decision = self.admission.decide(
                self.queue, avail_w, nodes_available=len(free_healthy),
                mark=True,
            )
            if not decision.admitted:
                if (self._in_flight == 0 and not self.injecting
                        and len(free_healthy) == len(self.cluster)):
                    # Full cluster, full budget, nothing in flight: the
                    # head can never run anywhere — unschedulable.
                    self._fail_head()
                    continue
                # Wait for a capacity-freed event; remember the capacity
                # snapshot so arrivals until then take the incremental
                # single-job admission path.
                self._blocked_key = (avail_w, len(free_healthy))
                break
            self._blocked_key = None
            cursor = 0
            for sub_decision, names in self._split_decision(decision):
                nodes = sub_decision.admitted_nodes
                host_ids = free_healthy[cursor:cursor + nodes]
                cursor += nodes
                share_w = sub_decision.admitted_power_w
                self._free_ids.difference_update(host_ids)
                self._reserved_w += share_w
                self._in_flight += 1
                if self._in_flight > self.stats.peak_in_flight:
                    self.stats.peak_in_flight = self._in_flight
                collected.append((
                    self._batch_counter, sub_decision, names, host_ids,
                    share_w, quarantined,
                ))
                self._batch_counter += 1
        if collected:
            self._execute_collected(collected)

    def _execute_collected(self, collected: List[Tuple]) -> None:
        """Execute one admission pass's launch groups; push completions."""
        uniform = self._uniform_hosts
        fault_schedule = self.fault_schedule if self.injecting else None
        with span("stream.engine.admit", batches=len(collected)) as sp:
            planned = [
                plan_admitted_batch(
                    clock=self.clock,
                    batch_index=batch_index,
                    admitted=[self.queue.get(n) for n in names],
                    decision=sub_decision,
                    host_efficiencies=(
                        self._host_eff if uniform
                        else self._host_eff[host_ids]
                    ),
                    policy=self.policy,
                    budget_w=share_w,
                    batch_budget_w=share_w,
                    quarantined=quarantined,
                    manager=self.manager,
                    run_seed=self.run_seed,
                    planner=self._planner,
                    uniform_hosts=uniform,
                    fault_schedule=fault_schedule,
                    degradation=self.degradation,
                    reaction_s=self.reaction_s,
                )
                for batch_index, sub_decision, names, host_ids,
                share_w, quarantined in collected
            ]
            executions = execute_planned_batches(
                planned, self.manager, self.noise_std
            )
            if sp is not None:
                sp.set_attribute(
                    "jobs", sum(len(c[2]) for c in collected)
                )
        push = self.loop.push
        for entry, execution in zip(collected, executions):
            push(
                execution.record.end_s, EventKind.BATCH_COMPLETE,
                execution=execution, hosts=tuple(entry[3]),
                share_w=entry[4],
            )

    def _admit_after_arrival(self, request: JobRequest) -> None:
        """Admission following one accepted arrival (non-quantised mode).

        The hot path under backlog: when the last full pass deferred
        everything and capacity has not moved since, only the new tail
        needs judging — ``decide_arrival`` is O(1) in queue depth.  Any
        mismatch with the remembered capacity snapshot (or an active
        fault schedule, whose budget/host state varies with the clock)
        falls back to the full pass.
        """
        key = self._blocked_key
        if key is not None and not self.injecting:
            avail_w = self.budget_w - self._reserved_w
            free = len(self._free_ids)
            if (avail_w, free) == key:
                decision = self.admission.decide_arrival(
                    self.queue, request, avail_w, free, mark=True,
                )
                if not decision.admitted:
                    return  # still blocked at unchanged capacity
                free_healthy = sorted(self._free_ids)
                nodes = decision.admitted_nodes
                host_ids = free_healthy[:nodes]
                share_w = decision.admitted_power_w
                self._free_ids.difference_update(host_ids)
                self._reserved_w += share_w
                self._in_flight += 1
                if self._in_flight > self.stats.peak_in_flight:
                    self.stats.peak_in_flight = self._in_flight
                entry = (
                    self._batch_counter, decision, decision.admitted,
                    host_ids, share_w, (),
                )
                self._batch_counter += 1
                # The prefix stays blocked at the shrunken capacity.
                self._blocked_key = (avail_w - share_w, free - nodes)
                self._execute_collected([entry])
                return
        self._try_admit_rolling()

    def run(self, max_events: Optional[int] = None) -> StreamStats:
        """Pump the rolling-mode event loop until the timeline drains.

        Telemetry ticks alone do not keep the engine alive: once the
        source is exhausted, nothing is pending, and no batch is in
        flight, remaining ticks are drained without rescheduling.
        """
        if not self.rolling:
            raise ValueError("run() is rolling mode; use replay() instead")
        processed = 0
        self._schedule_tick()
        # Hoist hot-loop lookups: the dispatch below runs once per event
        # at sustained arrival rates, so kind members and bound methods
        # are locals rather than repeated attribute loads.
        ARRIVAL = EventKind.ARRIVAL
        BATCH_COMPLETE = EventKind.BATCH_COMPLETE
        BUDGET_CHANGE = EventKind.BUDGET_CHANGE
        FAULT_BOUNDARY = EventKind.FAULT_BOUNDARY
        ADMISSION = EventKind.ADMISSION
        TELEMETRY_TICK = EventKind.TELEMETRY_TICK
        pop = self.loop.pop
        quantised = self.admission_interval_s is not None
        kind_counts = [0] * len(EventKind)
        with span("stream.engine.run", rolling=True) as sp:
            while self.loop:
                if max_events is not None and processed >= max_events:
                    break
                event = pop()
                if event.time_s > self.clock:
                    self.clock = event.time_s
                processed += 1
                kind = event.kind
                kind_counts[kind] += 1
                if kind is ARRIVAL:
                    request = event.payload["request"]
                    accepted = self._on_arrival(request, event.time_s)
                    if self._source is not None:
                        self._pull_arrival()
                    if not accepted:
                        continue  # queue unchanged; nothing to admit
                    if quantised:
                        self._schedule_admission_flush()
                    else:
                        self._admit_after_arrival(request)
                elif kind is BATCH_COMPLETE:
                    payload = event.payload
                    self._free_ids.update(payload["hosts"])
                    self._reserved_w -= payload["share_w"]
                    self._in_flight -= 1
                    self._blocked_key = None
                    self._account_batch(payload["execution"])
                    if quantised:
                        if self.queue.pending_count():
                            self._schedule_admission_flush()
                    else:
                        self._try_admit_rolling()
                elif kind is BUDGET_CHANGE:
                    self.budget_w = event.payload["budget_w"]
                    self._blocked_key = None
                    if enabled():
                        emit("stream.engine", "budget_change",
                             budget_w=self.budget_w, time_s=self.clock)
                    if quantised:
                        if self.queue.pending_count():
                            self._schedule_admission_flush()
                    else:
                        self._try_admit_rolling()
                elif kind is FAULT_BOUNDARY:
                    self._blocked_key = None
                    if quantised:
                        if self.queue.pending_count():
                            self._schedule_admission_flush()
                    else:
                        self._try_admit_rolling()
                elif kind is ADMISSION:
                    self._admission_scheduled = False
                    self._try_admit_rolling()
                elif kind is TELEMETRY_TICK:
                    self._on_tick()
            if sp is not None:
                sp.set_attribute("events", processed)
                sp.set_attribute("batches", self.stats.batches)
                for k in EventKind:
                    if kind_counts[k]:
                        sp.set_attribute(
                            f"events_{k.name.lower()}", kind_counts[k]
                        )
        self.stats.clock_s = self.clock
        return self.stats

    # ------------------------------------------------------------------
    # replay (drain) mode
    def replay(self, max_rounds: int = 100) -> SiteSimulationResult:
        """Drain the arrivals and run them through the batch shift loop.

        Every arrival still on the timeline or in the attached source is
        handed to :func:`run_site_simulation` with the engine's settings;
        ``max_rounds`` is its ``max_batches``.
        """
        if self.rolling:
            raise ValueError("replay() is drain mode; rolling engines run()")
        arrivals: List[Arrival] = []
        while self.loop:
            event = self.loop.pop()
            if event.kind is EventKind.ARRIVAL:
                arrivals.append(Arrival(event.time_s,
                                        event.payload["request"]))
        if self._source is not None:
            arrivals.extend(self._source)
            self._source = None
        return run_site_simulation(
            arrivals, self.cluster, self.policy, self.base_budget_w,
            admission=self.admission, manager=self.manager,
            noise_std=self.noise_std, max_batches=max_rounds,
            run_seed=self.run_seed, fault_schedule=self.fault_schedule,
            degradation=self.degradation, reaction_s=self.reaction_s,
        )

