"""Unit tests: fused facility engine mechanics and the shared caches.

The property suite pins the end-to-end identity contract (every worker
count is bit-identical); these tests pin the *mechanisms* at the
function level — cross-cluster grouping (same-structure batches share
one stacked engine pass, heterogeneous structures split), the bounded
stacked-layout memo with its one-row reuse across scenario counts, and
the span-attributed profile writer.
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
    real = sim_batch.simulate_layout_batch

    def counting(mixes, *args, **kwargs):
        calls.append(len(mixes))
        return real(mixes, *args, **kwargs)

    monkeypatch.setattr(sim_batch, "simulate_layout_batch", counting)
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
    def _layout(self, name="m", nodes=3):
        return WorkloadMix(name=name, jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=nodes, iterations=4),
        )).layout()

    def test_one_row_stack_reused_across_scenario_counts(self):
        # The fused engine's group sizes shrink as clusters drain; a
        # new scenario count must reuse the memoised one-row stack
        # (only the np.repeat fan-out differs), not re-gather physics.
        sim_batch._STACK_CACHE.clear()
        layout = self._layout()
        sim_batch._stack_layouts_cached([layout] * 5)
        single_entry = sim_batch._STACK_CACHE[(id(layout), 1)]
        sim_batch._stack_layouts_cached([layout] * 3)
        assert sim_batch._STACK_CACHE[(id(layout), 1)] is single_entry
        three = sim_batch._stack_layouts_cached([layout] * 3)
        np.testing.assert_array_equal(
            three.critical, sim_batch.stack_layouts([layout] * 3).critical
        )

    def test_cache_stays_bounded_under_fused_churn(self):
        sim_batch._STACK_CACHE.clear()
        layouts = [self._layout(name=f"m{i}", nodes=1 + i % 7)
                   for i in range(sim_batch._STACK_CACHE_LIMIT + 40)]
        for i, layout in enumerate(layouts):
            sim_batch._stack_layouts_cached([layout] * (1 + i % 4))
        info = sim_batch.stack_cache_info()
        assert info["entries"] <= info["limit"]
        assert info["limit"] == sim_batch._STACK_CACHE_LIMIT

    def test_stack_cache_info_counts_lookups(self):
        sim_batch._STACK_CACHE.clear()
        layout = self._layout()
        before = sim_batch.stack_cache_info()
        sim_batch._stack_layouts_cached([layout, layout])
        sim_batch._stack_layouts_cached([layout, layout])
        after = sim_batch.stack_cache_info()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1


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
        pstats_path, txt_path = write_profile(
            tmp_path, profiler, get_tracer().finished()
        )
        assert pstats_path.exists()
        text = txt_path.read_text()
        assert "Span self time" in text
        assert "Hottest frames" in text
        assert "sim.probe" in text

    def test_span_self_times_subtracts_children(self):
        from repro.telemetry import Span, span_self_times

        parent = Span(name="outer", span_id="p", trace_id="t",
                      wall_s=2.0)
        child = Span(name="inner", span_id="c", trace_id="t",
                     parent_id="p", wall_s=1.5)
        rows = {name: (count, wall, self_s)
                for name, count, wall, self_s
                in span_self_times([parent, child])}
        assert rows["outer"][2] == pytest.approx(0.5)
        assert rows["inner"][2] == pytest.approx(1.5)
