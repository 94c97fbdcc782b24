"""Integration: online re-planning converges to the offline plan.

The paper emulates execution-time coordination with pre-characterization;
the online manager implements the real thing.  If both are correct they
must agree: after its first re-planning epoch, the online loop's caps
should match what the offline (pre-characterized) pipeline would program
for the same mix and budget.
"""

import numpy as np
import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.online import OnlinePowerManager
from repro.manager.power_manager import PowerManager
from repro.manager.scheduler import Scheduler
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


@pytest.fixture(scope="module")
def environment():
    mix = WorkloadMix(
        name="consistency",
        jobs=(
            Job(name="hungry", config=KernelConfig(intensity=32.0),
                node_count=6, iterations=40),
            Job(
                name="waster",
                config=KernelConfig(intensity=8.0, waiting_fraction=0.5,
                                    imbalance=2),
                node_count=6,
                iterations=40,
            ),
        ),
    )
    cluster = Cluster(node_count=24, seed=5)
    scheduled = Scheduler(cluster).allocate(mix)
    return scheduled


@pytest.mark.parametrize("policy_name", ["StaticCaps", "MinimizeWaste",
                                         "JobAdaptive", "MixedAdaptive"])
def test_online_matches_offline_plan(environment, policy_name):
    scheduled = environment
    budget = 12 * 195.0
    manager = PowerManager()
    char = manager.characterize(scheduled)
    policy = create_policy(policy_name)

    _, offline_caps = policy.program(char, budget)
    offline_caps = manager.model.power_model.clamp_cap(offline_caps)

    online = OnlinePowerManager(iterations_per_epoch=5)
    run = online.run(scheduled, create_policy(policy_name), budget,
                     epochs=3, noise_std=0.0)
    online_caps = run.epochs[-1].caps_w

    np.testing.assert_allclose(online_caps, offline_caps, atol=0.5)


def test_online_outcome_matches_offline_outcome(environment):
    """Beyond caps: the steady-state performance matches too."""
    scheduled = environment
    budget = 12 * 195.0
    manager = PowerManager()
    char = manager.characterize(scheduled)
    offline = manager.launch(
        scheduled, create_policy("MixedAdaptive"), budget,
        characterization=char,
    )
    per_iter_offline = offline.result.mean_elapsed_s / 40

    online = OnlinePowerManager(iterations_per_epoch=5)
    run = online.run(scheduled, create_policy("MixedAdaptive"), budget,
                     epochs=4, noise_std=0.0)
    per_iter_online = run.epochs[-1].result.mean_elapsed_s / 5

    assert per_iter_online == pytest.approx(per_iter_offline, rel=0.02)
