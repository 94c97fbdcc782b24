"""Fused cross-cluster facility engine: batched physics facility-wide.

The facility's leaf engine.  The campaign workload is extremely
fusable: every cluster streams the same synthetic job classes on the
same node power model, so at any instant the facility's co-resident
batches are mostly *the same physics* — identical job block structure
and iteration counts, differing only in caps, efficiencies, seeds, and
budgets, which is precisely the per-row axis of
:func:`~repro.sim.batch.simulate_layout_rows`.

This engine advances **a group of clusters in lockstep inside one
process** and routes each round's co-resident batches — across
clusters — through shared stacked passes:

* Each cluster runs a
  :class:`~repro.stream.engine.SerialSiteEngine`, the event engine's
  serial mode, through its :meth:`~repro.stream.engine.SiteStreamEngine.passes`
  generator: the engine *yields* each planned one-row pass and receives
  the executed rows back via ``send()``.  Control flow, RNG draws,
  seeds, and per-cluster accumulation order are the engine's own — the
  same loop :func:`~repro.manager.site_simulation.run_site_simulation`
  runs one batch at a time.
* One shared :class:`~repro.manager.site_simulation.BatchPlanner`
  serves every cluster of the group, so each job class is
  characterized once per group, and all same-shape batches share one
  primed layout object, which keeps the stacked-layout cache hitting by
  identity across clusters.
* Each lockstep round collects the pending passes (in cluster order)
  and hands them to
  :func:`~repro.manager.site_simulation.execute_planned_batches`,
  which groups by ``(job boundaries, iterations)`` and runs one
  ``(S, hosts)`` engine pass per group (reporting the pass count).  The
  standard symmetric campaign's typical round is **one stacked pass for
  the whole group**.

:func:`~repro.hierarchy.facility.run_facility_simulation` calls this
engine once per worker group: ``workers=1`` is one group holding the
whole facility, run in-process; ``workers=k`` splits the clusters
round-robin into ``min(k, clusters)`` groups over a process pool, so k
cores each fuse their share of the facility.

Determinism contract
--------------------
Every worker count gives a bit-identical result (pinned by the
worker-count property suite).  Per-cluster RNG streams are untouched —
seeds are derived and consumed inside each cluster's own engine — and
grouped-pass rows are element-identical to one-row passes, so which
clusters share a group changes only the characterization-memo
statistics.  Every fault schedule takes the same path: host failures
narrow the cluster's schedulable hosts, sensor dropouts and budget
changes drive the degradation ladder in stage 1 and the compliance
accounting in stage 3, and a batch carrying engine-applicable faults
(stuck or erroring caps, noise bursts) simply runs as a pass of its
own.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.registry import create_policy
from repro.manager.admission import PowerAwareAdmission
from repro.manager.power_manager import PowerManager
from repro.manager.site_simulation import (
    BatchPlanner,
    SiteSimulationResult,
    execute_planned_batches,
)
from repro.stream import SerialSiteEngine, replay_stream
from repro.telemetry import enabled, get_registry, span

__all__ = ["run_fused_facility_leaves"]


def run_fused_facility_leaves(
    config,
    budgets_w: Sequence[float],
    schedules: Sequence[object],
    seeds: Sequence[int],
) -> Tuple[List[SiteSimulationResult], List[Tuple[int, int]]]:
    """Advance every leaf cluster in lockstep through fused passes.

    Parameters: the facility config (its ``clusters`` are the group to
    run), each cluster's base budget (its epoch-0 allocation), its
    composed leaf fault schedule (``None`` = fault free), and its
    derived run seed.  Returns the per-cluster
    :class:`SiteSimulationResult` list in cluster order plus
    per-cluster ``(char_hits, char_misses)`` characterization-memo
    statistics.
    """
    from repro.hierarchy.facility import build_cluster, cluster_arrivals

    specs = config.clusters
    n = len(specs)
    manager = PowerManager()
    policy = create_policy(config.policy)
    planner = BatchPlanner(manager, policy)

    stats = [[0, 0] for _ in range(n)]
    engines = []
    generators = []

    def advance(i: int, executions=None):
        """One generator step with char-stat attribution to cluster i."""
        hits0, misses0 = planner.char_hits, planner.char_misses
        try:
            if executions is None:
                planned = next(generators[i])
            else:
                planned = generators[i].send(executions)
        except StopIteration:
            planned = None
        stats[i][0] += planner.char_hits - hits0
        stats[i][1] += planner.char_misses - misses0
        return planned

    rounds = 0
    passes = 0
    with span("hierarchy.facility.fused", clusters=n) as fused_sp:
        for i, spec in enumerate(specs):
            engine = SerialSiteEngine(
                build_cluster(spec, config.seed),
                policy,
                float(budgets_w[i]),
                admission=PowerAwareAdmission(model=manager.model),
                manager=manager,
                noise_std=config.noise_std,
                run_seed=seeds[i],
                fault_schedule=schedules[i],
                max_batches=config.max_batches,
                planner=planner,
            )
            engine.attach_source(replay_stream(cluster_arrivals(spec)))
            engines.append(engine)
            generators.append(engine.passes())

        # Prime: run every cluster to its first pass (or, for trivially
        # short streams, to completion).
        pending: Dict[int, object] = {}
        for i in range(n):
            planned = advance(i)
            if planned is not None:
                pending[i] = planned

        # Lockstep rounds: fuse all co-resident passes into grouped
        # stacked engine passes, send each cluster its rows, collect the
        # next round.
        while pending:
            rounds += 1
            indices = sorted(pending)
            batches = [pending[i] for i in indices]
            executions = execute_planned_batches(
                batches, manager, config.noise_std
            )
            passes += executions.passes
            pending = {}
            cursor = 0
            for i, planned in zip(indices, batches):
                rows = executions[cursor:cursor + len(planned)]
                cursor += len(planned)
                following = advance(i, rows)
                if following is not None:
                    pending[i] = following

        if fused_sp is not None:
            fused_sp.set_attribute("rounds", rounds)
            fused_sp.set_attribute("stacked_passes", passes)
            fused_sp.set_attribute("char_hits", planner.char_hits)
            fused_sp.set_attribute("char_misses", planner.char_misses)
        if enabled():
            registry = get_registry()
            registry.counter("hierarchy.fused.rounds").inc(rounds)
            registry.counter("hierarchy.fused.stacked_passes").inc(passes)
            registry.counter("hierarchy.fused.char_hits").inc(
                planner.char_hits)
            registry.counter("hierarchy.fused.char_misses").inc(
                planner.char_misses)

    return [engine.result for engine in engines], [tuple(s) for s in stats]
