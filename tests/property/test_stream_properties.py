"""Property-based tests: replaying an arrival list through the stream API.

:func:`stream_site_simulation` hands a pre-built arrival list to the
batch shift loop.  Hypothesis drives random arrival lists, budgets,
policies, and round limits through it and checks the replay contract:
the truncation split partitions every arrival exactly once, and the
caller's arrival list is not consumed, so replaying it twice gives the
same answer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.stream.engine import stream_site_simulation
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
        """Round-limit truncation partitions every arrival exactly once."""
        batch = run_site_simulation(
            arrivals, CLUSTER, create_policy(policy), budget,
            max_batches=max_batches,
        )
        stream = stream_site_simulation(
            arrivals, CLUSTER, create_policy(policy), budget,
            max_batches=max_batches,
        )
        assert stream == batch
        # The status partition covers every arrival exactly once.
        names = {a.request.name for a in arrivals}
        reported = (set(stream.completed) | set(stream.never_admitted)
                    | set(stream.truncated))
        assert reported == names
        assert (len(stream.completed) + len(stream.never_admitted)
                + len(stream.truncated)) == len(names)

    @given(arrivals=arrival_lists(), budget=budgets)
    @settings(max_examples=15, deadline=None)
    def test_replay_does_not_consume_inputs(self, arrivals, budget):
        """Replaying twice from one arrival list gives the same answer."""
        first = stream_site_simulation(
            arrivals, CLUSTER, create_policy("StaticCaps"), budget
        )
        second = stream_site_simulation(
            arrivals, CLUSTER, create_policy("StaticCaps"), budget
        )
        assert first == second
        assert all(a.request.state.value == "pending" for a in arrivals)
