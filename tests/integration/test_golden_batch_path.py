"""Golden outputs of the batch-execution path, pinned by digest.

Every fault scenario in :data:`~repro.faults.scenarios.STANDARD_SCENARIOS`
(plus the fault-free case) runs through :func:`run_site_simulation` under
each of the five paper policies on a small heterogeneous (Quartz
variation) cluster, and the rolling :class:`SiteStreamEngine` runs the
engine-fault (``stuck-caps``) and compound (``cascade``) scenarios with
single- and per-job batches.  Rolling runs on a uniform-host cluster
(``variation=None``) pin the identity-order scheduling path, and one of
them runs with ``run_seed=None`` (the batch index as the noise seed).  Each run's records are reduced to a digest
and compared with the committed fixture ``golden_batch_path.json``.

The fixture is the contract that the batch planner and executor keep
their numbers: scheduling shuffles, noise seeds, the degradation ladder,
engine-applicable fault slices and overshoot accounting all feed the
digest.  After a deliberate physics change, regenerate it with::

    PYTHONPATH=src python tests/integration/test_golden_batch_path.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.registry import POLICY_NAMES, create_policy
from repro.faults.scenarios import SCENARIO_NAMES, build_scenario
from repro.hardware.cluster import QUARTZ_VARIATION, Cluster
from repro.hardware.node import NodePowerModel
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.stream.engine import SiteStreamEngine
from repro.workload.kernel import KernelConfig

FIXTURE = Path(__file__).with_name("golden_batch_path.json")

#: Significant digits a float keeps in a digest (as in the repository
#: benchmark): any physics change shows, a last-bit host difference not.
DIGITS = 10

HOSTS = 48
SHIFT_S = 40.0
RUN_SEED = 7
JOB_CLASSES = (
    (KernelConfig(intensity=0.25), 4),
    (KernelConfig(intensity=8.0), 8),
    (KernelConfig(intensity=2.0, waiting_fraction=0.5, imbalance=2), 12),
    (KernelConfig(intensity=32.0), 4),
)
ROLLING_SCENARIOS = ("none", "stuck-caps", "cascade")
ROLLING_POLICIES = ("StaticCaps", "MixedAdaptive")


def _cluster(variation=QUARTZ_VARIATION) -> Cluster:
    return Cluster(node_count=HOSTS, variation=variation, seed=3)


def _budget_w() -> float:
    return 0.7 * NodePowerModel().tdp_w * HOSTS


def _arrivals():
    return [
        Arrival(time_s=2.0 * (i // 4), request=JobRequest(
            name=f"job-{i}", config=config, node_count=nodes,
            iterations=40, power_hint_w=180.0,
        ))
        for i, (config, nodes) in
        enumerate(JOB_CLASSES[i % len(JOB_CLASSES)] for i in range(40))
    ]


def _schedule(name: str):
    if name == "none":
        return None
    return build_scenario(name, _budget_w(), HOSTS, SHIFT_S)


def _canon(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _digest(value) -> str:
    payload = json.dumps(_canon(value), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _records(batches):
    return [
        [b.start_s, b.end_s, list(b.admitted), list(b.deferred),
         b.mean_power_w, b.energy_j, b.budget_w, b.degradation_tier,
         list(b.quarantined), b.planned_overshoot_ws, b.overshoot_ws,
         b.backoff_s]
        for b in batches
    ]


def site_run(scenario: str, policy: str) -> dict:
    result = run_site_simulation(
        _arrivals(), _cluster(), create_policy(policy), _budget_w(),
        max_batches=200, run_seed=RUN_SEED,
        fault_schedule=_schedule(scenario),
    )
    return {
        "batches": len(result.batches),
        "energy_j": _canon(result.total_energy_j),
        "digest": _digest([
            _records(result.batches), list(result.completed),
            list(result.never_admitted), list(result.truncated),
            result.job_turnaround_s, result.fault_schedule_name,
        ]),
    }


def rolling_run(scenario: str, policy: str, per_job: bool,
                uniform: bool = False, run_seed=RUN_SEED) -> dict:
    cluster = _cluster(None) if uniform else _cluster()
    engine = SiteStreamEngine(
        cluster, create_policy(policy), _budget_w(), run_seed=run_seed,
        fault_schedule=_schedule(scenario),
        admission_interval_s=1.0, per_job_batches=per_job,
    )
    engine.attach_source(iter(_arrivals()))
    stats = engine.run()
    return {
        "batches": stats.batches,
        "energy_j": _canon(stats.energy_j),
        "digest": _digest([
            _records(engine.batches), list(engine.turnaround_s),
            list(engine.failed), engine.turnaround_s, stats.snapshot(),
        ]),
    }


SITE_CASES = [
    (scenario, policy)
    for scenario in ("none",) + SCENARIO_NAMES for policy in POLICY_NAMES
]
ROLLING_CASES = [
    (scenario, policy, per_job)
    for scenario in ROLLING_SCENARIOS for policy in ROLLING_POLICIES
    for per_job in (False, True)
]
#: ``(policy, per_job, run_seed)`` of the uniform-host rolling runs.
UNIFORM_CASES = [
    (policy, per_job, RUN_SEED)
    for policy in ROLLING_POLICIES for per_job in (False, True)
] + [("StaticCaps", True, None)]


def _site_key(scenario: str, policy: str) -> str:
    return f"site/{scenario}/{policy}"


def _rolling_key(scenario: str, policy: str, per_job: bool) -> str:
    return f"rolling/{scenario}/{policy}/{'per-job' if per_job else 'pooled'}"


def _uniform_key(policy: str, per_job: bool, run_seed) -> str:
    seed = "/run-seed-none" if run_seed is None else ""
    return f"rolling-uniform/{policy}/" \
        f"{'per-job' if per_job else 'pooled'}{seed}"


def uniform_run(policy: str, per_job: bool, run_seed) -> dict:
    return rolling_run("none", policy, per_job, uniform=True,
                       run_seed=run_seed)


def compute_all() -> dict:
    out = {_site_key(*case): site_run(*case) for case in SITE_CASES}
    out.update(
        {_rolling_key(*case): rolling_run(*case) for case in ROLLING_CASES}
    )
    out.update(
        {_uniform_key(*case): uniform_run(*case) for case in UNIFORM_CASES}
    )
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    expected = {_site_key(*c) for c in SITE_CASES} | {
        _rolling_key(*c) for c in ROLLING_CASES
    } | {_uniform_key(*c) for c in UNIFORM_CASES}
    assert set(golden) == expected


@pytest.mark.parametrize("scenario,policy", SITE_CASES)
def test_site_simulation_matches_golden(golden, scenario, policy):
    assert site_run(scenario, policy) == golden[_site_key(scenario, policy)]


@pytest.mark.parametrize("scenario,policy,per_job", ROLLING_CASES)
def test_rolling_engine_matches_golden(golden, scenario, policy, per_job):
    assert rolling_run(scenario, policy, per_job) == \
        golden[_rolling_key(scenario, policy, per_job)]


@pytest.mark.parametrize("policy,per_job,run_seed", UNIFORM_CASES)
def test_uniform_rolling_engine_matches_golden(golden, policy, per_job,
                                               run_seed):
    assert uniform_run(policy, per_job, run_seed) == \
        golden[_uniform_key(policy, per_job, run_seed)]


def test_fixture_exercises_every_fault_path(golden):
    """The cases are not degenerate: faults land mid-shift."""
    tiers = set()
    for scenario in SCENARIO_NAMES:
        result = run_site_simulation(
            _arrivals(), _cluster(), create_policy("MixedAdaptive"),
            _budget_w(), max_batches=200, run_seed=RUN_SEED,
            fault_schedule=_schedule(scenario),
        )
        assert len(result.batches) >= 4, scenario
        assert result.completed, scenario
        tiers.update(b.degradation_tier for b in result.batches)
    assert {"replan", "clamp"} <= tiers


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_batch_path.py --write")
    FIXTURE.write_text(json.dumps(compute_all(), indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
