"""Unit tests: fused facility engine mechanics and the shared caches.

The property suite pins the end-to-end identity contract (every worker
count is bit-identical); these tests pin the *mechanisms* at the
function level — cross-cluster grouping (same-structure batches share
one stacked engine pass, heterogeneous structures split), the bound on
the stacked-layout memo under the fused engine's churn, and the
span-attributed profile writer.
"""

import numpy as np
import pytest

from repro.hierarchy import ClusterSpec, FacilityConfig, run_facility_simulation
from repro.sim import batch as sim_batch
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


def _spec(name, jobs=3, iterations=4, **kwargs):
    return ClusterSpec(name=name, node_count=8, racks=2, nodes_per_job=2,
                       jobs=jobs, iterations=iterations, spacing_s=1.0,
                       **kwargs)


def _run_counting_passes(monkeypatch, config):
    """Run as one in-process group; returns (result, [scenario-count
    per engine pass])."""
    calls = []
    real = sim_batch.simulate_layout_rows

    def counting(layouts, *args):
        calls.append(len(layouts))
        return real(layouts, *args)

    monkeypatch.setattr(sim_batch, "simulate_layout_rows", counting)
    result = run_facility_simulation(config, workers=1)
    return result, calls


class TestCrossClusterGrouping:
    def test_identical_clusters_share_one_pass_per_round(self, monkeypatch):
        # Two clusters with identical (job_boundaries, iterations)
        # structure: every lockstep round must run ONE stacked pass
        # covering both clusters — no round may split them.
        config = FacilityConfig(
            clusters=(_spec("a"), _spec("b")),
            budget_w=2 * 8 * 200.0, window_s=10.0, horizon_s=30.0, seed=3,
        )
        result, calls = _run_counting_passes(monkeypatch, config)
        assert calls, "expected staged engine passes"
        assert all(scenarios == 2 for scenarios in calls)
        assert result == run_facility_simulation(config, workers=2)

    def test_heterogeneous_structures_split(self, monkeypatch):
        # Different iteration counts cannot share a stacked pass: the
        # grouping key must split them while same-structure pairs fuse.
        config = FacilityConfig(
            clusters=(_spec("a", iterations=4), _spec("b", iterations=4),
                      _spec("c", iterations=6)),
            budget_w=3 * 8 * 200.0, window_s=10.0, horizon_s=30.0, seed=3,
        )
        result, calls = _run_counting_passes(monkeypatch, config)
        # Rounds where all three are co-resident split into a 2-row
        # pass (a+b) and a 1-row pass (c) — never a 3-row pass.
        assert max(calls) == 2
        assert 1 in calls
        assert result == run_facility_simulation(config, workers=2)


class TestStackedLayoutCacheReuse:
    def _layouts(self, name="m", nodes=3):
        return [
            WorkloadMix(name=f"{name}{i}", jobs=(
                Job(name="j", config=KernelConfig(intensity=8.0 * (i + 1)),
                    node_count=nodes, iterations=4),
            )).layout()
            for i in range(2)
        ]

    def test_cache_stays_bounded_under_fused_churn(self):
        # The fused engine's churn: new layouts and group sizes every
        # round must not grow the memo past its limit.
        sim_batch._STACK_CACHE.clear()
        for i in range(sim_batch._STACK_CACHE_LIMIT + 40):
            a, b = self._layouts(name=f"m{i}", nodes=1 + i % 7)
            sim_batch._stack_layouts_cached([a, b] * (1 + i % 3))
        info = sim_batch.stack_cache_info()
        assert info["entries"] <= info["limit"]
        assert info["limit"] == sim_batch._STACK_CACHE_LIMIT


class TestProfileWriter:
    def test_writes_span_attributed_report(self, tmp_path):
        from repro.telemetry import (
            get_tracer,
            profile_command,
            span,
            write_profile,
        )

        with profile_command() as profiler:
            with span("sim.probe"):
                np.linalg.norm(np.arange(512.0))
        totals = get_tracer().totals()
        pstats_path, txt_path = write_profile(tmp_path, profiler, totals)
        assert pstats_path.exists()
        text = txt_path.read_text()
        assert "Span self time" in text
        assert "Hottest frames" in text
        row = totals["sim.probe"]
        assert (f"{'sim.probe':<44} {1:>6} {row['wall_s']:>10.4f}"
                f" {row['self_s']:>10.4f}") in text

    def test_span_totals_subtract_children(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        inner.wall_s = 1.5
        tracer.finish(inner)
        outer.wall_s = 2.0
        tracer.finish(outer)
        totals = tracer.totals()
        assert totals["outer"]["self_s"] == pytest.approx(0.5)
        assert totals["inner"]["self_s"] == pytest.approx(1.5)
