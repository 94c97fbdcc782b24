"""Fused cross-cluster facility engine: batched physics facility-wide.

The facility's leaf engine.  The campaign workload is extremely
fusable: every cluster streams the same synthetic job classes on the
same node power model, so at any instant the facility's co-resident
batches are mostly *the same physics* — identical job block structure
and iteration counts, differing only in caps, efficiencies, seeds, and
budgets, which is precisely the per-row axis of
:func:`~repro.sim.batch.simulate_layout_batch`.

This engine advances **a group of clusters in lockstep inside one
process** and routes each round's co-resident batches — across
clusters — through shared stacked passes:

* Each cluster's shift loop runs as a
  :func:`~repro.manager.site_simulation.shift_rounds` generator: the
  loop *yields* each planned batch and receives the executed result
  back via ``send()``.  Control flow, RNG draws, seeds, and per-cluster
  accumulation order are the shift loop's own statements — the same
  generator :func:`~repro.manager.site_simulation.run_site_simulation`
  drives one batch at a time.
* One shared :class:`~repro.manager.site_simulation.BatchPlanner`
  serves every cluster of the group, so each job class is
  characterized once per group, and all same-shape batches share one
  primed layout object, which keeps the stacked-layout cache hitting by
  identity across clusters.
* Each lockstep round collects the pending batches (in cluster order)
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
seeds are derived and consumed inside each cluster's own generator —
and grouped-pass rows are element-identical to one-row passes, so which
clusters share a group changes only the characterization-memo
statistics.  Every fault schedule takes the same path: host failures
narrow the cluster's schedulable hosts, sensor dropouts and budget
changes drive the degradation ladder in stage 1 and the compliance
accounting in stage 3, and a batch carrying engine-applicable faults
(stuck or erroring caps, noise bursts) simply runs as a pass of its
own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.registry import create_policy
from repro.manager.admission import PowerAwareAdmission
from repro.manager.power_manager import PowerManager
from repro.manager.site_simulation import (
    BatchPlanner,
    SiteSimulationResult,
    execute_planned_batches,
    shift_rounds,
)
from repro.telemetry import enabled, get_registry, span
from repro.units import ensure_positive

__all__ = ["run_fused_facility_leaves"]

#: Distinct sentinel for "prime the generator" (``None`` is a valid
#: ``send`` value only after the first yield, so priming uses ``next``).
_PRIME = object()


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

    results: List[Optional[SiteSimulationResult]] = [None] * n
    stats = [[0, 0] for _ in range(n)]
    generators = []

    def advance(i: int, value):
        """One generator step with char-stat attribution to cluster i."""
        hits0, misses0 = planner.char_hits, planner.char_misses
        try:
            if value is _PRIME:
                batch = next(generators[i])
            else:
                batch = generators[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value
            batch = None
        stats[i][0] += planner.char_hits - hits0
        stats[i][1] += planner.char_misses - misses0
        return batch

    rounds = 0
    passes = 0
    with span("hierarchy.facility.fused", clusters=n) as fused_sp:
        for i, spec in enumerate(specs):
            # run_site_simulation validates its budget; the fused engine
            # must reject the same degenerate budgets.
            ensure_positive(budgets_w[i], "budget_w")
            generators.append(shift_rounds(
                cluster_arrivals(spec),
                build_cluster(spec, config.seed),
                policy,
                float(budgets_w[i]),
                admission=PowerAwareAdmission(model=manager.model),
                manager=manager,
                max_batches=config.max_batches,
                run_seed=seeds[i],
                fault_schedule=schedules[i],
                planner=planner,
            ))

        # Prime: run every cluster to its first batch (or, for trivially
        # short streams, to completion).
        pending: Dict[int, object] = {}
        for i in range(n):
            batch = advance(i, _PRIME)
            if batch is not None:
                pending[i] = batch

        # Lockstep rounds: fuse all co-resident batches into grouped
        # stacked passes, feed each row back, collect the next round.
        while pending:
            rounds += 1
            indices = sorted(pending)
            batches = [pending[i] for i in indices]
            executions = execute_planned_batches(
                batches, manager, config.noise_std
            )
            passes += executions.passes
            pending = {}
            for i, execution in zip(indices, executions):
                batch = advance(i, execution)
                if batch is not None:
                    pending[i] = batch

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

    return results, [tuple(s) for s in stats]
