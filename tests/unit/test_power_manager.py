"""Unit tests for the resource manager's power manager."""

import numpy as np
import pytest

from repro.core.policy import apply_job_runtime
from repro.core.registry import create_policy
from repro.manager.power_manager import PowerManager
from repro.manager.scheduler import Scheduler
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig
from tests.unit.test_policies_basic import make_char


@pytest.fixture(scope="module")
def scheduled(small_cluster_module):
    mix = WorkloadMix(
        name="pm",
        jobs=(
            Job(name="hungry", config=KernelConfig(intensity=8.0), node_count=6,
                iterations=5),
            Job(
                name="waster",
                config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=3),
                node_count=6,
                iterations=5,
            ),
        ),
    )
    return Scheduler(small_cluster_module).allocate(mix)


@pytest.fixture(scope="module")
def small_cluster_module():
    from repro.hardware.cluster import Cluster

    return Cluster(node_count=40, seed=3)


class TestPlan:
    def test_plan_respects_budget(self, scheduled):
        manager = PowerManager()
        char = manager.characterize(scheduled)
        for name in ("StaticCaps", "MinimizeWaste", "JobAdaptive", "MixedAdaptive"):
            allocation, _ = manager.plan(
                scheduled, create_policy(name), 12 * 200.0, characterization=char
            )
            assert allocation.within_budget(), name

    def test_precharacterized_overshoot_tolerated(self, scheduled):
        """Non-system-aware policies are allowed to exceed the budget —
        that failure mode is the phenomenon under study."""
        manager = PowerManager()
        allocation, _ = manager.plan(scheduled, create_policy("Precharacterized"), 12 * 150.0)
        assert not allocation.within_budget()

    def test_bad_budget_rejected(self, scheduled):
        with pytest.raises(ValueError):
            PowerManager().plan(scheduled, create_policy("StaticCaps"), -5.0)


class TestLaunch:
    def test_launch_produces_run(self, scheduled):
        manager = PowerManager()
        run = manager.launch(scheduled, create_policy("StaticCaps"), 12 * 200.0)
        assert run.result.policy_name == "StaticCaps"
        assert run.allocation.policy_name == "StaticCaps"
        assert run.characterization.host_count == 12

    def test_characterization_reuse(self, scheduled):
        manager = PowerManager()
        char = manager.characterize(scheduled)
        run = manager.launch(
            scheduled, create_policy("MixedAdaptive"), 12 * 200.0,
            characterization=char,
        )
        assert run.characterization is char

    def test_application_aware_policies_run_under_balancer(self, scheduled):
        """At a generous budget, the app-aware policies' measured power
        stays at needed levels while StaticCaps lets pollers draw fully."""
        manager = PowerManager()
        char = manager.characterize(scheduled)
        budget = 12 * 240.0
        static = manager.launch(
            scheduled, create_policy("StaticCaps"), budget, characterization=char
        )
        mixed = manager.launch(
            scheduled, create_policy("MixedAdaptive"), budget, characterization=char
        )
        assert mixed.result.total_energy_j < static.result.total_energy_j


class TestApplyJobRuntime:
    def test_trims_to_needed_with_surplus(self):
        char = make_char(
            monitor=[230, 220],
            needed=[230, 150],
            boundaries=[0, 2],
        )
        caps = np.array([240.0, 240.0])
        effective = apply_job_runtime(char, caps)
        np.testing.assert_allclose(effective, [230.0, 150.0])

    def test_scales_down_when_job_budget_tight(self):
        char = make_char(
            monitor=[230, 220],
            needed=[230, 150],
            boundaries=[0, 2],
        )
        caps = np.array([170.0, 170.0])  # job budget 340 < needed 380
        effective = apply_job_runtime(char, caps)
        assert effective.sum() <= 340.0 + 1e-6
        assert effective[0] > effective[1]

    def test_per_job_isolation(self):
        """The runtime redistributes within each job independently."""
        char = make_char(
            monitor=[230, 220, 230, 220],
            needed=[230, 150, 230, 150],
            boundaries=[0, 2, 4],
        )
        caps = np.array([240.0, 240.0, 170.0, 170.0])
        effective = apply_job_runtime(char, caps)
        # Job 0 has surplus: exact needed; job 1 is tight: scaled.
        np.testing.assert_allclose(effective[:2], [230.0, 150.0])
        assert effective[2:].sum() <= 340.0 + 1e-6
