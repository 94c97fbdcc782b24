"""The streaming site engine: sustained load through the admission stack.

One event loop (:class:`~repro.stream.events.EventLoop`) runs the site
in one of two admission modes, sharing arrival intake, fault-state
queries, the fail-head rule and completion accounting:

**Rolling** (:class:`SiteStreamEngine`) — the long-lived service shape:
multiple batches in flight, `PowerAwareAdmission` re-run on every
capacity-freed event (a batch completing, the budget moving, a fault
boundary passing) against whatever has genuinely arrived, arrivals pulled
lazily from a generator (one lookahead event in the heap), queue
backpressure via ``max_pending``, and aggregate :class:`StreamStats`
instead of per-job records when ``record_jobs=False`` — the configuration
that holds memory flat through millions of arrivals per simulated day.
Each in-flight batch reserves its admitted-set estimate
(`decision.admitted_power_w`) out of the facility budget and is launched
with that reservation as its budget, so the sum of concurrent batch
budgets never exceeds the facility budget in force at their launches.

**Serial** (:class:`SerialSiteEngine`) — the batch shift loop that
:func:`~repro.manager.site_simulation.run_site_simulation` and the fused
facility engine (:mod:`repro.hierarchy.fused`) run: one batch at a time
on the whole cluster, admitted whenever the cluster drains.

Each job's lifecycle lives in the engine's
:class:`~repro.manager.queue.JobQueue`, not on its immutable request:
arrival submits it, admission admits it, and its batch completes it (or
the fail-head rule fails it), leaving only the queue's counters.

Admission only *collects* :class:`~repro.manager.site_simulation.Launch`
rows.  :meth:`SiteStreamEngine.passes` plans each event's rows as one
:class:`~repro.manager.site_simulation.PlannedPass` (one memoised
:class:`~repro.manager.site_simulation.BatchPlanner` and one block seed
cache per engine) and yields it for execution:
:meth:`SiteStreamEngine.run` runs each pass through
:func:`~repro.manager.site_simulation.execute_planned_batches`, and the
fused facility engine fuses the passes of many engines.
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.policy import Policy
from repro.hardware.cluster import Cluster
from repro.manager.admission import PowerAwareAdmission
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobQueue, JobRequest
from repro.manager.site_simulation import (
    Arrival,
    BatchExecution,
    BatchPlanner,
    BatchRecord,
    Launch,
    PlannedPass,
    SiteSimulationResult,
    batch_seeds,
    execute_planned_batches,
    plan_admitted_batch,
)
from repro.stream.events import Event, EventKind, EventLoop
from repro.telemetry import emit, enabled, span
from repro.units import ensure_positive

__all__ = ["SerialSiteEngine", "SiteStreamEngine", "StreamStats"]


@dataclass
class StreamStats:
    """Aggregate counters the engine maintains in O(1) memory.

    The one source of a run's totals, however many jobs flow through:
    the daemon's ``stats`` op, the bench and a serial run's result read
    them here; the per-job and per-batch records are never re-summed.
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
        Only ``True`` is accepted.
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
        When set, admission is *quantised*: arrivals and capacity events
        schedule one deferred ADMISSION flush this far ahead instead of
        re-running admission inline, so a burst of events pays for one
        pass and co-arriving batches launch together (the high-rate
        configuration that feeds the stacked engine pass wide groups).
        ``None`` keeps the classic admit-on-every-event semantics.
    per_job_batches:
        When True, each admitted job launches as its own single-job
        batch instead of co-scheduling one batch per admission pass —
        uniform job structure (wide vectorised groups) and per-job
        completion granularity.
    planner:
        The :class:`BatchPlanner` memo batches are planned through
        (default: a fresh one); engines run in lockstep can share one.
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
        rolling: bool = True,
        max_pending: Optional[int] = None,
        record_jobs: bool = True,
        record_batches: bool = True,
        tick_interval_s: Optional[float] = None,
        admission_interval_s: Optional[float] = None,
        per_job_batches: bool = False,
        planner: Optional[BatchPlanner] = None,
    ) -> None:
        ensure_positive(budget_w, "budget_w")
        if not rolling:
            raise ValueError(
                "SiteStreamEngine admits rolling only; run a closed arrival "
                "list through run_site_simulation (serial admission)"
            )
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive or None")
        if tick_interval_s is not None:
            ensure_positive(tick_interval_s, "tick_interval_s")
        if admission_interval_s is not None:
            ensure_positive(admission_interval_s, "admission_interval_s")
        self.cluster = cluster
        self.policy = policy
        self.base_budget_w = float(budget_w)
        self.budget_w = float(budget_w)
        self.manager = manager if manager is not None else PowerManager()
        self.admission = admission if admission is not None else \
            PowerAwareAdmission(model=self.manager.model)
        self.noise_std = noise_std
        self.fault_schedule = fault_schedule
        self.degradation = degradation
        self.reaction_s = reaction_s
        self.injecting = fault_schedule is not None and fault_schedule.active
        self.max_pending = max_pending
        self.record_jobs = record_jobs
        self.record_batches = record_batches
        self.tick_interval_s = tick_interval_s
        self.per_job_batches = per_job_batches
        # Delay of a deferred ADMISSION flush; None admits inline.
        self._flush_delay_s = admission_interval_s

        self.loop = EventLoop()
        self.queue = JobQueue()
        self.clock = 0.0
        self.stats = StreamStats()
        self.batches: List[BatchRecord] = []
        # Ended jobs in end order; failed names as a dict for O(1) lookup.
        self.turnaround_s: Dict[str, float] = {}
        self.failed: Dict[str, None] = {}
        self._arrival_time: Dict[str, float] = {}
        self._source: Optional[Iterator[Arrival]] = None
        self._batch_counter = 0
        # Occupancy: host ids currently free, and the watt reservations
        # of in-flight batches.
        self._free_ids: Set[int] = set(range(len(cluster)))
        self._reserved_w = 0.0
        self._in_flight = 0
        # The launch rows (with their reserved host ids) the current
        # event's admission collected, planned as one pass after it.
        self._collected: List[Tuple[Launch, Tuple[int, ...]]] = []
        self._tick_scheduled = False
        # Slot-reused periodic events (allocation-free re-arming).
        self._tick_event: Optional[Event] = None
        self._admission_event: Optional[Event] = None
        self._admission_scheduled = False
        self._planner = planner if planner is not None else \
            BatchPlanner(self.manager, policy)
        self._seeds = batch_seeds(run_seed)
        self._host_eff = cluster.efficiencies
        # Homogeneous-cluster fast path: when every host efficiency is
        # equal, any subset's efficiency vector is a slice of the
        # cluster's, so the per-batch gather (and the physically inert
        # scheduler shuffle) can be skipped.
        eff = cluster.efficiencies
        self._uniform_hosts = bool((eff == eff[0]).all()) if len(eff) else True
        # Fault state can change only at the schedule's boundaries:
        # admission re-runs there as timeline events.
        if self.injecting:
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
        """Queue one arrival; False when backpressure rejected it.

        The queue keeps the caller's (immutable) request and owns its
        lifecycle, so any number of engines can share one arrival list.
        With ``record_jobs`` the engine keeps every ended job's record,
        so a name is never reused, and those records count as tracked.
        """
        self.stats.arrivals += 1
        queue = self.queue
        pending = queue.pending_count()
        if self.max_pending is not None and pending >= self.max_pending:
            self.stats.rejected += 1
            if enabled():
                emit("stream.engine", "job_rejected", name=request.name,
                     pending=pending, max_pending=self.max_pending)
            return False
        tracked = len(queue) + 1
        if self.record_jobs:
            if request.name in self.turnaround_s \
                    or request.name in self.failed:
                raise ValueError(f"job {request.name!r} already ended")
            tracked += len(self.turnaround_s) + len(self.failed)
        queue.submit(request)
        self._arrival_time[request.name] = time_s
        if pending >= self.stats.peak_pending:
            self.stats.peak_pending = pending + 1
        if tracked > self.stats.peak_tracked_jobs:
            self.stats.peak_tracked_jobs = tracked
        return True

    def _account_batch(self, execution: BatchExecution) -> None:
        """Fold one finished batch into the engine's records and stats."""
        record = execution.record
        self.stats.batches += 1
        self.stats.energy_j += record.energy_j
        self.stats.overshoot_ws += record.overshoot_ws
        if self.record_batches:
            self.batches.append(record)
        complete = self.queue.complete
        for name, completion in zip(execution.record.admitted,
                                    execution.completion_s):
            complete(name)
            turnaround = completion - self._arrival_time.pop(name)
            self.stats.jobs_completed += 1
            self.stats.turnaround_sum_s += turnaround
            self.stats.turnaround_max_s = max(
                self.stats.turnaround_max_s, turnaround
            )
            if self.record_jobs:
                self.turnaround_s[name] = turnaround

    def _fail_head(self) -> None:
        stuck = self.queue.peek_pending()
        self.queue.fail(stuck.name)
        self._arrival_time.pop(stuck.name, None)
        self.stats.jobs_failed += 1
        if self.record_jobs:
            self.failed[stuck.name] = None
        if enabled():
            emit("stream.engine", "job_failed", name=stuck.name)

    def _drain(self) -> None:
        """The timeline drained: nothing is left that could free
        capacity, so every job still pending fails as unschedulable."""
        while self.queue.pending_count():
            self._fail_head()

    def _fault_state(self) -> Tuple[float, Tuple[int, ...], Set[int]]:
        """(budget in force, quarantined host ids, failed host-id set)."""
        if not self.injecting:
            return self.budget_w, (), set()
        budget = self.fault_schedule.budget_at(self.clock, self.budget_w)
        failed_hosts = set(self.fault_schedule.failed_hosts_at(self.clock))
        return budget, tuple(sorted(failed_hosts)), failed_hosts

    # ------------------------------------------------------------------
    # admission
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
        """Arm the deferred ADMISSION event (quantised admission)."""
        if self._admission_scheduled:
            return
        t = self.clock + self._flush_delay_s
        if self._admission_event is None:
            self._admission_event = self.loop.push(t, EventKind.ADMISSION)
        else:
            self.loop.repush(self._admission_event, t)
        self._admission_scheduled = True

    def _on_tick(self) -> None:
        self._tick_scheduled = False
        self.stats.clock_s = self.clock
        if enabled():
            emit("stream.engine", "tick",
                 pending=self.queue.pending_count(),
                 in_flight=self._in_flight, **self.stats.snapshot())
        if self.loop:
            self._schedule_tick()

    def _admit(self) -> None:
        """Admit against free hosts and unreserved budget.

        Runs until nothing more fits — each launch frees nothing, so one
        pass per triggering event suffices; the next BATCH_COMPLETE or
        BUDGET_CHANGE re-triggers it.  The admitted set launches as one
        co-scheduled batch, or with ``per_job_batches`` as one batch per
        job (uniform job structure, so the batched step groups wide),
        each reserving its estimate and its slice of the free hosts.
        Each launch reserves immediately, so successive ``decide`` calls
        see the shrunken capacity; the collected rows are planned and
        executed after the triggering event's handler returns, and their
        completions only land via future BATCH_COMPLETE events, so no
        decision depends on that split.
        """
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
                break  # wait for a capacity-freed event
            get = self.queue.get
            if not self.per_job_batches:
                self._launch(
                    [get(name) for name in decision.admitted],
                    decision.deferred, decision.admitted_power_w,
                    free_healthy[:decision.admitted_nodes], quarantined,
                )
                continue
            cursor = 0
            for name in decision.admitted:
                # A one-job batch's share is its estimate: exactly the
                # one-term admitted_power_w sum.
                request = get(name)
                nodes = request.node_count
                self._launch((request,), decision.deferred,
                             decision.estimates_w[name],
                             free_healthy[cursor:cursor + nodes], quarantined)
                cursor += nodes

    def _launch(self, requests: Sequence[JobRequest],
                deferred: Tuple[str, ...], share_w: float,
                host_ids: List[int], quarantined: Tuple[int, ...]) -> None:
        """Collect the launch row of ``requests`` on ``host_ids``.

        The batch's budget is its reservation ``share_w``, the admitted
        jobs' estimate.
        """
        self._reserve(Launch(
            self._batch_counter, deferred, requests,
            self._host_eff if self._uniform_hosts
            else self._host_eff[host_ids],
            share_w, share_w, quarantined,
        ), host_ids)

    def _reserve(self, launch: Launch, host_ids) -> None:
        """Hold ``host_ids`` and ``launch.budget_w`` until the batch
        completes, and collect the row for this event's pass."""
        self._free_ids.difference_update(host_ids)
        self._reserved_w += launch.budget_w
        self._in_flight += 1
        if self._in_flight > self.stats.peak_in_flight:
            self.stats.peak_in_flight = self._in_flight
        self._batch_counter += 1
        self._collected.append((launch, tuple(host_ids)))

    def _plan_collected(self) -> PlannedPass:
        """Plan the collected launch rows as one admission pass."""
        launches = [launch for launch, _ in self._collected]
        with span("stream.engine.admit", batches=len(launches)) as sp:
            planned = plan_admitted_batch(
                clock=self.clock,
                launches=launches,
                policy=self.policy,
                manager=self.manager,
                planner=self._planner,
                seeds=self._seeds,
                uniform_hosts=self._uniform_hosts,
                fault_schedule=self.fault_schedule if self.injecting
                else None,
                degradation=self.degradation,
                reaction_s=self.reaction_s,
            )
            if sp is not None:
                sp.set_attribute(
                    "jobs", sum(len(names) for names in planned.job_names)
                )
        return planned

    def _capacity_changed(self) -> None:
        """Re-run admission (or arm its flush) after capacity moved."""
        if self._flush_delay_s is None:
            self._admit()
        elif self.queue.pending_count():
            self._schedule_admission_flush()

    # ------------------------------------------------------------------
    # the event loop
    def passes(self, max_events: Optional[int] = None):
        """The event loop as a generator of admission passes.

        Pumps the timeline until it drains.  After each event whose
        handler collected launch rows, the rows are planned as one
        :class:`PlannedPass`, which is yielded; the caller sends back its
        executions (one :class:`BatchExecution` per row, in row order —
        an :func:`execute_planned_batches` result or a slice of one), and
        their BATCH_COMPLETE events go onto the timeline.  The
        generator's return value is the per-:class:`EventKind` count of
        events processed.

        Telemetry ticks alone do not keep the engine alive: a tick
        re-arms only while other events remain on the timeline.  When
        the timeline drains, :meth:`_drain` settles the jobs still
        pending.  A loop stopped by ``max_events`` leaves its pending
        jobs queued.  No span is open across a ``yield``: generators
        driven in lockstep would interleave the tracer's span stack.
        """
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
        loop = self.loop
        pop = loop.pop
        quantised = self._flush_delay_s is not None
        kind_counts = [0] * len(EventKind)
        while loop:
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
                queued = self._on_arrival(request, event.time_s)
                if self._source is not None:
                    self._pull_arrival()
                if not queued:
                    continue  # queue unchanged; nothing to admit
                if quantised:
                    self._schedule_admission_flush()
                else:
                    self._admit()
            elif kind is BATCH_COMPLETE:
                payload = event.payload
                self._free_ids.update(payload["hosts"])
                self._reserved_w -= payload["share_w"]
                self._in_flight -= 1
                self._account_batch(payload["execution"])
                self._capacity_changed()
            elif kind is BUDGET_CHANGE:
                self.budget_w = event.payload["budget_w"]
                if enabled():
                    emit("stream.engine", "budget_change",
                         budget_w=self.budget_w, time_s=self.clock)
                self._capacity_changed()
            elif kind is FAULT_BOUNDARY:
                self._capacity_changed()
            elif kind is ADMISSION:
                self._admission_scheduled = False
                self._admit()
            elif kind is TELEMETRY_TICK:
                self._on_tick()
            if self._collected:
                executions = yield self._plan_collected()
                for (launch, hosts), execution in zip(self._collected,
                                                      executions):
                    loop.push(
                        execution.record.end_s, BATCH_COMPLETE,
                        execution=execution, hosts=hosts,
                        share_w=launch.budget_w,
                    )
                self._collected = []
        self.stats.clock_s = self.clock
        if not loop:
            self._drain()
        return kind_counts

    def run(self, max_events: Optional[int] = None) -> StreamStats:
        """Pump the event loop until the timeline drains (see
        :meth:`passes`), executing each admission pass on its own."""
        with span("stream.engine.run") as sp:
            passes = self.passes(max_events)
            try:
                planned = next(passes)
                while True:
                    planned = passes.send(execute_planned_batches(
                        [planned], self.manager, self.noise_std
                    ))
            except StopIteration as stop:
                kind_counts = stop.value
            if sp is not None:
                sp.set_attribute("events", sum(kind_counts))
                sp.set_attribute("batches", self.stats.batches)
                for k in EventKind:
                    if kind_counts[k]:
                        sp.set_attribute(
                            f"events_{k.name.lower()}", kind_counts[k]
                        )
        return self.stats


class SerialSiteEngine(SiteStreamEngine):
    """The batch shift loop: the engine with serial admission.

    Admission runs only when nothing is in flight, over every healthy
    host at the fault-adjusted budget, and launches the admitted set as
    one batch quoted at the base budget (``Launch.budget_w``).  It is a
    same-instant flush, so every arrival and completion of its instant
    lands first.  A round that admits nothing waits for the next fault
    boundary, ignoring arrivals until then; with no boundary left it
    fails the head of the queue and tries again.

    At most ``max_batches`` batches launch; jobs still pending or
    unarrived at the limit end ``truncated``, not failed.  Once the
    timeline drains, :attr:`result` holds the
    :class:`SiteSimulationResult`.
    """

    def __init__(self, cluster: Cluster, policy: Policy, budget_w: float,
                 *, max_batches: int = 100, **kwargs) -> None:
        if kwargs.get("admission_interval_s") is not None \
                or kwargs.get("per_job_batches"):
            raise ValueError("serial admission takes no rolling knobs")
        super().__init__(cluster, policy, budget_w, **kwargs)
        self.max_batches = max_batches
        self._flush_delay_s = 0.0
        self._boundaries = self.fault_schedule.boundaries() \
            if self.injecting else ()
        # Set when a round admitted nothing: no admission until the next
        # fault boundary (or other capacity event) clears it.
        self._awaiting_boundary = False
        self.result: Optional[SiteSimulationResult] = None

    def _schedule_admission_flush(self) -> None:
        # Idle, not waiting on a fault boundary and below max_batches;
        # otherwise the next completion or boundary arms the flush, or
        # (at the limit) nothing launches again.
        if not self._in_flight and not self._awaiting_boundary \
                and self._batch_counter < self.max_batches:
            super()._schedule_admission_flush()

    def _capacity_changed(self) -> None:
        self._awaiting_boundary = False
        super()._capacity_changed()

    def _admit(self) -> None:
        while self.queue.pending_count() \
                and self._batch_counter < self.max_batches:
            budget_now, quarantined, failed_hosts = self._fault_state()
            hosts = self._host_eff
            if failed_hosts:
                hosts = hosts[[i for i in range(len(hosts))
                               if i not in failed_hosts]]
            decision = self.admission.decide(
                self.queue, budget_now, nodes_available=len(hosts),
                mark=True,
            ) if len(hosts) and budget_now > 0 else None
            if decision is not None and decision.admitted:
                # The batch holds the whole cluster through _in_flight,
                # so it reserves no host ids.
                self._reserve(Launch(
                    self._batch_counter, decision.deferred,
                    [self.queue.get(n) for n in decision.admitted],
                    hosts, self.budget_w, budget_now, quarantined,
                ), ())
                return
            if bisect.bisect_right(self._boundaries, self.clock) \
                    < len(self._boundaries):
                self._awaiting_boundary = True
                return
            self._fail_head()

    def _drain(self) -> None:
        # Admission leaves jobs pending at a drained timeline only once
        # max_batches stopped it: unfinished work, not rejections.
        self.result = SiteSimulationResult(
            policy_name=self.policy.name,
            budget_w=self.base_budget_w,
            stats=self.stats,
            batches=tuple(self.batches),
            never_admitted=tuple(self.failed),
            job_turnaround_s=self.turnaround_s,
            fault_schedule_name=self.fault_schedule.name
            if self.injecting else "",
            truncated=tuple(r.name for r in self.queue.pending()),
        )
        if enabled():
            emit(
                "manager.site", "simulation_complete",
                policy=self.policy.name, batches=self.stats.batches,
                completed=self.stats.jobs_completed,
                never_admitted=self.stats.jobs_failed,
                makespan_s=self.result.makespan_s,
                mean_turnaround_s=self.stats.mean_turnaround_s(),
            )
