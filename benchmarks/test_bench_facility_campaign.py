"""Bench: the hierarchical facility campaign at 50k-node scale.

The acceptance benchmark of the ``repro.hierarchy`` budget-broker tree
on the fused facility engine (all clusters advanced in lockstep,
co-resident batches routed through shared cross-cluster stacked physics
passes).  The full run covers the 50 000-node floor in a single
command; under ``REPRO_SMOKE=1`` the facility shrinks to 8 clusters x
800 nodes so the CI job stays fast while still exercising the trace,
the feeder dips, the worker-group pool, and the identity asserts.

Determinism is asserted in-run: the timed ``workers=1`` campaign is
re-run once and compared ``==`` (best-of-2 wall, identical results), a
``workers=2`` run of the same config (two fused cluster groups over a
process pool) must be ``==`` to it, and a small paired config must agree
across ``workers=1`` / ``workers=2`` / ``workers=4``.  The headline
``clusters_per_s`` is the one-group (in-process) campaign's.

Writes ``benchmarks/output/facility_campaign.txt``; the facility
engine's performance is gated by the ``facility`` workload of
``bench/run.py``.
"""

import gc
import os
import time

from repro.experiments.facility_scale import (
    FacilityCampaignConfig,
    run_facility_campaign,
)

SMOKE = os.environ.get("REPRO_SMOKE") == "1"

CLUSTERS = 8 if SMOKE else 16
NODES_PER_CLUSTER = 800 if SMOKE else 3_200
JOBS_PER_CLUSTER = 16 if SMOKE else 48
SEED = 23

CONFIG = FacilityCampaignConfig(
    clusters=CLUSTERS,
    nodes_per_cluster=NODES_PER_CLUSTER,
    jobs_per_cluster=JOBS_PER_CLUSTER,
    seed=SEED,
)


def _timed_run(workers):
    # A collector pause mid-run is measurement noise, not broker cost;
    # deferring collection keeps single-shot timings honest.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_facility_campaign(CONFIG, workers=workers)
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()
    return result, wall_s


def test_facility_campaign_scale_and_determinism(emit):
    # Warm-up at a fraction of the size: primes numpy dispatch, the
    # layout memos, and the worker pool spawn machinery.
    warm = FacilityCampaignConfig(clusters=2, nodes_per_cluster=64,
                                  jobs_per_cluster=4, seed=SEED)
    run_facility_campaign(warm, workers=1)
    run_facility_campaign(warm, workers=2)

    # Best-of-2 with an in-run identity assert: the rerun must be
    # bit-identical (the determinism contract), and the minimum wall is
    # the least-contended estimate on shared CI hosts.  Two worker
    # groups must reproduce the one-group result bitwise.
    result, wall_s = _timed_run(1)
    result_again, wall_again = _timed_run(1)
    pooled, pooled_wall = _timed_run(2)
    assert result == result_again
    assert result == pooled
    wall_s = min(wall_s, wall_again)

    # Scale floor: the full campaign must cover >= 50k nodes in this
    # one command (the smoke config only shrinks, never reshapes).
    if not SMOKE:
        assert result.total_nodes >= 50_000

    # The trace-driven top budget must actually vary across windows,
    # and every epoch's apportioned total must stay within it.
    assert len(set(result.budgets_w)) > 1
    for epoch in range(len(result.epoch_s)):
        assert result.allocated_w(epoch) <= result.budgets_w[epoch] + 1e-6

    # Feeder-dip clusters (every fourth) must show the mid-horizon cap.
    dipped = [c for i, c in enumerate(result.clusters) if i % 4 == 2]
    assert dipped
    for outcome in dipped:
        assert min(outcome.allocations_w) < max(outcome.allocations_w)

    # Every cluster ran real physics: jobs completed, energy consumed.
    completed = result.completed_jobs()
    assert completed > 0
    assert result.total_energy_j > 0.0

    # Characterization sharing must be doing real work: the fused
    # planner serves the overwhelming majority of same-class
    # characterizations from its facility-wide memo.
    assert result.char_cache_hit_ratio() > 0.5

    # Worker invariance on a small paired config (workers=4 exceeds
    # its cluster count) — workers must never change the result, only
    # the wall clock.
    small = FacilityCampaignConfig(clusters=3, nodes_per_cluster=96,
                                   jobs_per_cluster=6, seed=SEED)
    serial = run_facility_campaign(small, workers=1)
    assert serial == run_facility_campaign(small, workers=2)
    assert serial == run_facility_campaign(small, workers=4)

    clusters_per_s = CLUSTERS / wall_s
    nodes_per_s = result.total_nodes / wall_s

    lines = [
        "Hierarchical facility campaign: "
        f"{CLUSTERS} clusters x {NODES_PER_CLUSTER} nodes "
        f"(= {result.total_nodes:,} nodes), trace-driven top budget, "
        f"{CONFIG.broker_policy} broker, fused engine",
        "",
        f"  nodes simulated:     {result.total_nodes:,}",
        f"  jobs completed:      {completed}",
        f"  epochs planned:      {len(result.epoch_s)}"
        f"  (window = {CONFIG.window_s:.0f} s)",
        f"  stranded power:      {result.stranded_w():,.0f} W"
        " (mean unallocated)",
        f"  total energy:        {result.total_energy_j / 1e6:,.1f} MJ",
        f"  mean turnaround:     {result.mean_turnaround_s():.1f} s",
        f"  char cache hits:     {100 * result.char_cache_hit_ratio():.0f}%",
        f"  wall time:           {wall_s:.2f} s"
        f"  ({clusters_per_s:,.1f} clusters/s,"
        f" {nodes_per_s:,.0f} nodes/s)",
        f"  workers=2 wall time: {pooled_wall:.2f} s"
        "  (two cluster groups, identical result)",
    ]
    emit("facility_campaign", "\n".join(lines))
