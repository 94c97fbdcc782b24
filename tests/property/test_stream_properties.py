"""Property-based tests: replaying a pre-built arrival list.

:func:`run_site_simulation` runs a closed arrival list through the
batch shift loop (the stream engine's serial mode).
Hypothesis drives random arrival lists, budgets, policies, and round
limits through it and checks the replay contract:
the truncation split partitions every arrival exactly once, and the
caller's arrival list is not consumed, so replaying it twice gives the
same answer.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.workload.kernel import KernelConfig

CLUSTER = Cluster(node_count=10, variation=None, seed=0)

_INTENSITIES = (0.25, 2.0, 8.0, 32.0)


@st.composite
def arrival_lists(draw):
    """1-7 arrivals with mixed shapes, times, and optional hints."""
    count = draw(st.integers(1, 7))
    # One iteration count per list: jobs co-scheduled into a batch must
    # share it (a WorkloadMix invariant, same as the batch loop).
    iterations = draw(st.integers(5, 15))
    arrivals = []
    for i in range(count):
        hint = draw(st.one_of(
            st.none(), st.floats(120.0, 260.0, allow_nan=False)
        ))
        arrivals.append(Arrival(
            time_s=draw(st.floats(0.0, 40.0, allow_nan=False)),
            request=JobRequest(
                name=f"job-{i}",
                config=KernelConfig(
                    intensity=draw(st.sampled_from(_INTENSITIES))
                ),
                node_count=draw(st.integers(1, 12)),
                iterations=iterations,
                power_hint_w=hint,
            ),
        ))
    return arrivals


policies = st.sampled_from(["StaticCaps", "MixedAdaptive", "JobAdaptive"])
budgets = st.floats(900.0, 4000.0, allow_nan=False)
round_limits = st.integers(1, 12)


class TestStreamReplayIdentity:
    @given(arrivals=arrival_lists(), policy=policies, budget=budgets,
           max_batches=round_limits)
    @settings(max_examples=25, deadline=None)
    def test_truncation_matches_batch_loop(self, arrivals, policy, budget,
                                           max_batches):
        """Batch-limit truncation partitions every arrival exactly once."""
        result = run_site_simulation(
            arrivals, CLUSTER, create_policy(policy), budget,
            max_batches=max_batches,
        )
        # The status partition covers every arrival exactly once.
        names = {a.request.name for a in arrivals}
        reported = (set(result.completed) | set(result.never_admitted)
                    | set(result.truncated))
        assert reported == names
        assert (len(result.completed) + len(result.never_admitted)
                + len(result.truncated)) == len(names)
        # The engine's counters agree with the records it kept.
        assert result.stats.jobs_completed == len(result.completed)
        assert result.stats.jobs_failed == len(result.never_admitted)

    @given(arrivals=arrival_lists(), budget=budgets)
    @settings(max_examples=15, deadline=None)
    def test_replay_does_not_consume_inputs(self, arrivals, budget):
        """Replaying twice from one arrival list gives the same answer."""
        before = copy.deepcopy(arrivals)
        first = run_site_simulation(
            arrivals, CLUSTER, create_policy("StaticCaps"), budget
        )
        second = run_site_simulation(
            arrivals, CLUSTER, create_policy("StaticCaps"), budget
        )
        assert first == second
        assert arrivals == before
