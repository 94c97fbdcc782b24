"""Unit tests for the job queue."""

import pytest

from repro.manager.queue import JobQueue, JobRequest, JobState
from repro.workload.kernel import KernelConfig


def _request(name="job", nodes=10):
    return JobRequest(name=name, config=KernelConfig(intensity=4.0), node_count=nodes)


class TestJobRequest:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            _request(nodes=0)

    def test_rejects_bad_hint(self):
        with pytest.raises(ValueError):
            JobRequest(
                name="j", config=KernelConfig(intensity=1.0), node_count=1,
                power_hint_w=-5.0,
            )

    def test_to_job(self):
        job = _request().to_job()
        assert job.node_count == 10
        assert job.name == "job"

    def test_starts_pending(self):
        assert _request().state is JobState.PENDING


class TestJobQueue:
    def test_submit_and_get(self):
        q = JobQueue()
        q.submit(_request("a"))
        assert q.get("a").name == "a"
        assert len(q) == 1

    def test_duplicate_name_rejected(self):
        q = JobQueue()
        q.submit(_request("a"))
        with pytest.raises(ValueError, match="already queued"):
            q.submit(_request("a"))

    def test_submit_rejects_a_request_that_is_not_pending(self):
        done = JobQueue()
        done.submit(_request("a"))
        done.mark("a", JobState.ALLOCATED)
        done.mark("a", JobState.RUNNING)
        done.mark("a", JobState.COMPLETED)
        q = JobQueue()
        with pytest.raises(ValueError, match="not pending"):
            q.submit(done.get("a"))
        assert len(q) == 0 and q.pending_count() == 0

    def test_missing_job_raises(self):
        with pytest.raises(KeyError):
            JobQueue().get("ghost")

    def test_pending_in_submission_order(self):
        q = JobQueue()
        for name in ("z", "a", "m"):
            q.submit(_request(name))
        assert [r.name for r in q.pending()] == ["z", "a", "m"]

    def test_lifecycle_happy_path(self):
        q = JobQueue()
        q.submit(_request("a"))
        q.mark("a", JobState.ALLOCATED)
        q.mark("a", JobState.RUNNING)
        q.mark("a", JobState.COMPLETED)
        assert q.get("a").state is JobState.COMPLETED

    def test_illegal_transition_rejected(self):
        q = JobQueue()
        q.submit(_request("a"))
        with pytest.raises(ValueError, match="illegal transition"):
            q.mark("a", JobState.RUNNING)  # must be allocated first

    def test_terminal_states_frozen(self):
        q = JobQueue()
        q.submit(_request("a"))
        q.mark("a", JobState.FAILED)
        with pytest.raises(ValueError):
            q.mark("a", JobState.ALLOCATED)

    def test_pending_excludes_started(self):
        q = JobQueue()
        q.submit(_request("a"))
        q.submit(_request("b"))
        q.mark("a", JobState.ALLOCATED)
        assert [r.name for r in q.pending()] == ["b"]

    def test_pending_count_and_peek_are_constant_time_views(self):
        q = JobQueue()
        assert q.pending_count() == 0
        assert q.peek_pending() is None
        q.submit(_request("a"))
        q.submit(_request("b"))
        assert q.pending_count() == 2
        assert q.peek_pending().name == "a"
        q.mark("a", JobState.ALLOCATED)
        assert q.pending_count() == 1
        assert q.peek_pending().name == "b"
