"""Unit tests for the time-stepped site simulation."""

import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.manager.queue import JobRequest
from repro.workload.kernel import KernelConfig


def _arrival(name, t, nodes=4, intensity=8.0, hint=None):
    return Arrival(
        time_s=t,
        request=JobRequest(
            name=name,
            config=KernelConfig(intensity=intensity),
            node_count=nodes,
            iterations=5,
            power_hint_w=hint,
        ),
    )


@pytest.fixture(scope="module")
def site_cluster():
    return Cluster(node_count=12, variation=None, seed=0)


class TestValidation:
    def test_empty_arrivals_give_an_empty_shift(self, site_cluster):
        result = run_site_simulation(
            [], site_cluster, create_policy("StaticCaps"), 2000.0
        )
        assert (result.batches, result.completed, result.never_admitted,
                result.truncated) == ((), (), (), ())
        assert result.total_energy_j == 0.0

    def test_rejects_negative_arrival_time(self):
        with pytest.raises(ValueError):
            _arrival("a", -1.0)

    def test_rejects_bad_budget(self, site_cluster):
        with pytest.raises(ValueError):
            run_site_simulation(
                [_arrival("a", 0.0)], site_cluster,
                create_policy("StaticCaps"), 0.0,
            )


class TestScheduling:
    def test_all_jobs_complete(self, site_cluster):
        arrivals = [_arrival(f"j{i}", 0.0) for i in range(3)]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("MixedAdaptive"),
            budget_w=12 * 220.0,
        )
        assert sorted(result.completed) == ["j0", "j1", "j2"]
        assert result.never_admitted == ()

    def test_capacity_forces_batching(self, site_cluster):
        """Three 4-node jobs on 12 nodes with an 8-node power budget run
        in more than one batch."""
        arrivals = [_arrival(f"j{i}", 0.0, hint=230.0) for i in range(3)]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=8 * 235.0,
        )
        assert len(result.batches) >= 2
        assert sorted(result.completed) == ["j0", "j1", "j2"]

    def test_budget_respected_every_batch(self, site_cluster):
        arrivals = [_arrival(f"j{i}", 0.0) for i in range(3)]
        budget = 8 * 235.0
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("MixedAdaptive"),
            budget_w=budget,
        )
        assert result.peak_power_w() <= budget * 1.001

    def test_late_arrival_waits(self, site_cluster):
        """A job arriving after the first batch starts runs in a later
        batch, and its turnaround excludes pre-arrival time."""
        arrivals = [
            _arrival("early", 0.0, nodes=8),
            _arrival("late", 1000.0, nodes=8),
        ]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0,
        )
        assert sorted(result.completed) == ["early", "late"]
        assert len(result.batches) == 2
        assert result.batches[1].start_s >= 1000.0
        assert result.job_turnaround_s["late"] < result.batches[1].end_s

    def test_unschedulable_job_reported(self, site_cluster):
        """A job larger than the cluster never completes but does not
        hang the simulation."""
        arrivals = [
            _arrival("ok", 0.0, nodes=4),
            _arrival("whale", 0.0, nodes=500),
        ]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0,
        )
        assert "ok" in result.completed
        assert "whale" in result.never_admitted

    def test_turnaround_positive(self, site_cluster):
        arrivals = [_arrival(f"j{i}", float(i)) for i in range(2)]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0,
        )
        assert all(t > 0 for t in result.job_turnaround_s.values())
        assert result.mean_turnaround_s() > 0

    def test_totals_are_engine_counters(self, site_cluster):
        # A serial run's totals are the engine's final counters, not a
        # second sum over the kept records.
        from repro.faults.schedule import FaultSchedule
        from repro.stream import SerialSiteEngine, replay_stream

        budget_w = 12 * 235.0
        # A deep dip lands mid-batch and lifts before the next launch.
        drop = FaultSchedule(name="dip").budget_drop(
            0.1, 0.1 * budget_w).budget_restore(0.5, budget_w)
        engine = SerialSiteEngine(
            site_cluster, create_policy("StaticCaps"), budget_w,
            fault_schedule=drop,
        )
        engine.attach_source(replay_stream(
            [_arrival(f"j{i}", float(i)) for i in range(3)]))
        stats = engine.run()
        result = engine.result
        assert result.stats is stats
        assert stats.clock_s == engine.clock
        assert result.total_energy_j == stats.energy_j > 0.0
        assert result.total_overshoot_ws() == stats.overshoot_ws > 0.0
        assert result.mean_turnaround_s() == stats.mean_turnaround_s() > 0.0
        assert result.completed == tuple(engine.turnaround_s)
        assert len(result.completed) == stats.jobs_completed == 3

    def test_policy_improves_makespan_under_tight_budget(self, site_cluster):
        """MixedAdaptive completes the same arrival stream no slower than
        StaticCaps under a constrained budget."""
        arrivals = [
            _arrival("hungry", 0.0, nodes=6, intensity=32.0),
            Arrival(
                time_s=0.0,
                request=JobRequest(
                    name="waster",
                    config=KernelConfig(
                        intensity=8.0, waiting_fraction=0.5, imbalance=3
                    ),
                    node_count=6,
                    iterations=5,
                ),
            ),
        ]
        budget = 12 * 185.0
        static = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"), budget
        )
        mixed = run_site_simulation(
            arrivals, site_cluster, create_policy("MixedAdaptive"), budget
        )
        assert mixed.makespan_s <= static.makespan_s * 1.001


class TestBackoffCharging:
    def test_completions_include_decision_latency(self, site_cluster,
                                                  monkeypatch):
        """Regression: per-job completions once used ``clock + elapsed``
        while the batch end advanced by ``max(elapsed) + backoff_s``, so
        degraded batches "completed" jobs before the batch ended.  The
        ladder's latency must be charged to every completion."""
        import dataclasses as dc

        from repro.faults import degradation as degradation_mod
        from repro.faults.schedule import FaultSchedule

        real_plan = degradation_mod.plan_with_degradation

        def delayed_plan(*args, **kwargs):
            return dc.replace(real_plan(*args, **kwargs), backoff_s=1.5)

        monkeypatch.setattr(
            degradation_mod, "plan_with_degradation", delayed_plan
        )
        # An active-but-inert schedule routes batches through the ladder.
        schedule = FaultSchedule(name="inert").budget_drop(1e6, 2800.0)
        arrivals = [_arrival("a", 0.0), _arrival("b", 0.0)]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0, fault_schedule=schedule,
        )
        batch = result.batches[0]
        assert batch.backoff_s == 1.5
        completions = [
            result.job_turnaround_s[name] + 0.0 for name in ("a", "b")
        ]
        # The critical-path job finishes exactly at the batch end; nobody
        # finishes after it, and everybody carries the 1.5 s latency.
        assert max(completions) == batch.end_s
        assert all(c <= batch.end_s for c in completions)
        assert min(completions) > batch.backoff_s


class TestTruncationStatus:
    def test_truncated_jobs_not_labeled_never_admitted(self, site_cluster):
        """Regression: jobs still pending (or unarrived) at the
        max_batches limit were reported as never_admitted, conflating
        unfinished work with admission rejections."""
        arrivals = [_arrival(f"j{i}", float(i)) for i in range(5)]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0, max_batches=1,
        )
        # Only j0 has arrived when the single allowed batch launches.
        assert result.completed == ("j0",)
        assert result.never_admitted == ()
        assert set(result.truncated) == {"j1", "j2", "j3", "j4"}

    def test_max_batches_counts_batches_not_loop_rounds(self, site_cluster):
        """The limit bounds batches launched: waiting idle for a late
        arrival does not use one up."""
        arrivals = [_arrival("a", 0.0), _arrival("b", 1000.0)]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0, max_batches=2,
        )
        assert result.completed == ("a", "b")
        assert len(result.batches) == 2
        assert result.truncated == ()

    def test_rejected_job_still_never_admitted(self, site_cluster):
        arrivals = [
            _arrival("ok", 0.0, nodes=4),
            _arrival("whale", 0.0, nodes=500),
        ]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0,
        )
        assert result.never_admitted == ("whale",)
        assert result.truncated == ()

    def test_full_run_truncates_nothing(self, site_cluster):
        arrivals = [_arrival(f"j{i}", float(i)) for i in range(3)]
        result = run_site_simulation(
            arrivals, site_cluster, create_policy("StaticCaps"),
            budget_w=12 * 235.0,
        )
        assert result.truncated == ()
        assert set(result.completed) == {f"j{i}" for i in range(3)}
