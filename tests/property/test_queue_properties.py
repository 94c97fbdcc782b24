"""Property-based tests: the job queue's lifecycle and conservation.

Random submit/admit/complete/fail sequences over a small name pool (so
names recur after they end) run against a dict model of the lifecycle
PENDING -> ADMITTED -> COMPLETED | FAILED.  After every step the queue
conserves jobs — ``submitted == pending + admitted + completed +
failed`` — and an illegal transition raises ``ValueError`` and leaves
every count unchanged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.manager.queue import JobQueue, JobRequest
from repro.workload.kernel import KernelConfig

NAMES = ("a", "b", "c", "d")
CONFIG = KernelConfig(intensity=4.0)

operations = st.lists(
    st.tuples(st.sampled_from(("submit", "admit", "complete", "fail")),
              st.sampled_from(NAMES)),
    max_size=60,
)


def _counts(queue):
    return (queue.submitted, queue.pending_count(), queue.admitted_count(),
            queue.completed, queue.failed)


@settings(max_examples=300, deadline=None)
@given(ops=operations)
def test_random_lifecycles_conserve_jobs(ops):
    queue = JobQueue()
    model = {}  # live name -> "pending" | "admitted", in submission order
    for op, name in ops:
        state = model.get(name)
        legal = {
            "submit": state is None,
            "admit": state == "pending",
            "complete": state == "admitted",
            "fail": state is not None,
        }[op]
        before = _counts(queue)
        call = getattr(queue, op)
        arg = JobRequest(name, CONFIG, 1) if op == "submit" else name
        if not legal:
            with pytest.raises(ValueError):
                call(arg)
            assert _counts(queue) == before
            continue
        call(arg)
        if op == "submit":
            model[name] = "pending"
        elif op == "admit":
            model[name] = "admitted"
        else:
            del model[name]
        submitted, pending, admitted, completed, failed = _counts(queue)
        assert submitted == pending + admitted + completed + failed
        assert len(queue) == pending + admitted == len(model)
        assert [r.name for r in queue.pending()] == \
            [n for n, s in model.items() if s == "pending"]
