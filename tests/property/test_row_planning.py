"""Row-wise planning is bit-identical to planning one job at a time.

``fit_to_budget`` takes one target row per job, and ``apply_job_runtime``
and ``JobAdaptivePolicy`` run it once per group of equal-length job
blocks (``MixCharacterization.job_groups()``).  The per-job loops below are
the one-job-at-a-time rules those replaced; every output must equal
theirs bit for bit (``np.array_equal``, and ``==`` for the leftover).

Block lengths mix 1 through 200 hosts, so the row sums cross NumPy's
sequential (< 8), unrolled (8-128) and recursive pairwise (> 128)
summation branches; budgets sit below, at and above each job's overflow
point.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.mix_characterization import MixCharacterization
from repro.core.allocation import distribute_weighted, fit_to_budget
from repro.core.job_adaptive import JobAdaptivePolicy
from repro.core.policy import apply_job_runtime

FLOOR_W = 136.0
TDP_W = 240.0
LENGTHS = (1, 3, 7, 8, 9, 32, 64, 129, 200)
#: Per-job scale of the programmed caps around the job's needs: below,
#: at (exactly fits) and above the overflow point.
CAP_SCALES = (0.5, 0.97, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.03, 1.5)


def reference_fit(targets_w, budget_w, floor_w):
    """One target vector onto one budget (the one-job rule)."""
    targets = np.asarray(targets_w, dtype=float).copy()
    budget = float(budget_w)
    floor = float(floor_w)
    if np.any(targets + 1e-12 < floor):
        raise ValueError("targets must be at or above the floor")
    if float(np.sum(targets)) <= budget:
        return targets
    if targets.size * floor >= budget:
        return np.full_like(targets, floor)
    scaled = targets.copy()
    for _ in range(targets.size + 1):
        excess = float(np.sum(scaled)) - budget
        if excess <= 1.0e-9:
            break
        above = scaled - floor
        movable = float(np.sum(above))
        if movable <= 1.0e-9:
            break
        factor = max(0.0, 1.0 - excess / movable)
        scaled = floor + above * factor
    return scaled


def reference_job_runtime(char, caps_w):
    """``apply_job_runtime`` one job at a time."""
    caps = np.asarray(caps_w, dtype=float)
    effective = np.empty_like(caps)
    floor = char.min_cap_w
    for j in range(char.job_count):
        block = char.job_slice(j)
        job_budget = float(np.sum(caps[block]))
        targets = np.maximum(char.needed_cap_w[block], floor)
        if float(np.sum(targets)) > job_budget:
            effective[block] = reference_fit(targets, job_budget, floor)
        else:
            effective[block] = targets
    return effective


def reference_job_adaptive(char, budget_w):
    """``JobAdaptivePolicy._allocate`` one job at a time:
    ``(caps, leftover)``."""
    uniform = budget_w / char.host_count
    floor = char.min_cap_w
    caps = np.empty(char.host_count)
    leftover_total = 0.0
    for j in range(char.job_count):
        block = char.job_slice(j)
        hosts = block.stop - block.start
        job_budget = uniform * hosts
        targets = np.maximum(char.needed_cap_w[block], floor)
        if float(np.sum(targets)) > job_budget:
            job_caps = reference_fit(targets, job_budget, floor)
            leftover = 0.0
        else:
            surplus = job_budget - float(np.sum(targets))
            weights = np.maximum(targets - floor, 0.0)
            if not np.any(weights > 0):
                weights = np.ones_like(targets)
            job_caps, leftover = distribute_weighted(
                surplus, targets, weights, np.full(hosts, char.tdp_w))
        caps[block] = job_caps
        leftover_total += leftover
    return caps, leftover_total


@st.composite
def characterizations(draw):
    """A characterization with mixed block lengths and random needs,
    some rounded to whole watts (ties) and some pinned at the floor."""
    lengths = draw(st.lists(st.sampled_from(LENGTHS), min_size=1,
                            max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    needed = rng.uniform(FLOOR_W - 10.0, TDP_W + 10.0, int(bounds[-1]))
    if draw(st.booleans()):
        needed = np.round(needed)
    # A job whose every host needs no more than the floor.
    needed[bounds[0]:bounds[1]] = np.minimum(needed[bounds[0]:bounds[1]],
                                             FLOOR_W)
    needed_cap = np.clip(needed, FLOOR_W, TDP_W)
    char = MixCharacterization(
        mix_name="rows", job_boundaries=bounds,
        monitor_power_w=needed + 5.0, needed_power_w=needed,
        needed_cap_w=needed_cap, min_cap_w=FLOOR_W, tdp_w=TDP_W,
    )
    return char, rng


class TestJobGroups:
    @given(characterizations())
    @settings(max_examples=50, deadline=None)
    def test_groups_cover_every_job_block_once(self, case):
        char, _ = case
        seen = []
        for jobs, index in char.job_groups():
            assert index.shape == (jobs.size, index.shape[1])
            for job, hosts in zip(jobs.tolist(), index):
                block = char.job_slice(job)
                assert hosts.tolist() == list(range(block.start, block.stop))
                seen.append(job)
        assert sorted(seen) == list(range(char.job_count))


class TestFitToBudgetRows:
    @given(st.sampled_from(LENGTHS), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_each_row_equals_its_one_row_call(self, k, rows, seed):
        rng = np.random.default_rng(seed)
        targets = rng.uniform(FLOOR_W, TDP_W, (rows, k))
        sums = np.array([np.sum(row) for row in targets])
        # Budgets around each row's sum, plus all-floor-infeasible ones.
        budgets = sums * rng.choice([0.2, 0.8, 0.999, 1.0, 1.001, 1.5], rows)
        out = fit_to_budget(targets, budgets, FLOOR_W)
        for r in range(rows):
            expected = reference_fit(targets[r], budgets[r], FLOOR_W)
            assert np.array_equal(out[r], expected)
            assert np.array_equal(
                fit_to_budget(targets[r], budgets[r], FLOOR_W), expected)
        # A scalar budget applies to every row.
        shared = float(np.median(budgets))
        assert np.array_equal(
            fit_to_budget(targets, shared, FLOOR_W),
            np.stack([reference_fit(t, shared, FLOOR_W) for t in targets]))


class TestPerJobRules:
    @given(characterizations())
    @settings(max_examples=120, deadline=None)
    def test_apply_job_runtime(self, case):
        char, rng = case
        targets = np.maximum(char.needed_cap_w, FLOOR_W)
        scales = rng.choice(CAP_SCALES, char.job_count)
        caps = targets * np.repeat(scales, np.diff(char.job_boundaries))
        assert np.array_equal(apply_job_runtime(char, caps),
                              reference_job_runtime(char, caps))

    @given(characterizations(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_job_adaptive(self, case, data):
        char, _ = case
        targets = np.maximum(char.needed_cap_w, FLOOR_W)
        # Put the uniform share at (or an ulp off) one job's mean need, so
        # jobs land on both sides of their overflow point.
        job = data.draw(st.integers(0, char.job_count - 1))
        block = char.job_slice(job)
        mean = float(np.sum(targets[block])) / (block.stop - block.start)
        share = data.draw(st.sampled_from(
            [np.nextafter(mean, 0.0), mean, np.nextafter(mean, np.inf),
             mean * 0.9, mean * 1.1, FLOOR_W * 0.95]))
        budget = float(share) * char.host_count
        expected_caps, expected_left = reference_job_adaptive(char, budget)
        allocation = JobAdaptivePolicy().allocate(char, budget)
        assert np.array_equal(allocation.caps_w,
                              np.clip(expected_caps, FLOOR_W, TDP_W))
        assert allocation.unallocated_w == expected_left
        _, programmed = JobAdaptivePolicy().program(char, budget)
        assert np.array_equal(
            programmed,
            reference_job_runtime(char, np.clip(expected_caps, FLOOR_W,
                                                TDP_W)))
