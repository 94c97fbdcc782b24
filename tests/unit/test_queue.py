"""Unit tests for the job queue."""

import dataclasses

import pytest

from repro.manager.queue import JobQueue, JobRequest
from repro.workload.kernel import KernelConfig


def _request(name="job", nodes=10):
    return JobRequest(name=name, config=KernelConfig(intensity=4.0), node_count=nodes)


def _counts(q):
    return (q.submitted, q.pending_count(), q.admitted_count(), q.completed,
            q.failed)


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
        # A request carries no state: it is immutable, and a queue it is
        # submitted to holds it as pending.
        request = _request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.node_count = 2
        q = JobQueue()
        q.submit(request)
        assert q.pending() == [request]
        assert dataclasses.replace(request, name="other").node_count == 10


class TestJobQueue:
    def test_submit_and_get(self):
        q = JobQueue()
        q.submit(_request("a"))
        assert q.get("a").name == "a"
        assert len(q) == 1
        assert q.submitted == 1

    def test_duplicate_name_rejected(self):
        q = JobQueue()
        q.submit(_request("a"))
        with pytest.raises(ValueError, match="already queued"):
            q.submit(_request("a"))
        q.admit("a")
        with pytest.raises(ValueError, match="already queued"):
            q.submit(_request("a"))
        assert q.submitted == 1

    def test_one_request_serves_many_queues(self):
        # A request that ended in one queue is still new to another.
        request = _request("a")
        done = JobQueue()
        done.submit(request)
        done.admit("a")
        done.complete("a")
        q = JobQueue()
        q.submit(request)
        assert q.pending() == [request]

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
        q.admit("a")
        assert q.get("a").name == "a"
        q.complete("a")
        # An ended job leaves only its count.
        assert _counts(q) == (1, 0, 0, 1, 0)
        assert len(q) == 0
        with pytest.raises(KeyError):
            q.get("a")

    def test_illegal_transition_rejected(self):
        q = JobQueue()
        q.submit(_request("a"))
        with pytest.raises(ValueError, match="not admitted"):
            q.complete("a")  # must be admitted first
        q.admit("a")
        with pytest.raises(ValueError, match="not pending"):
            q.admit("a")
        assert _counts(q) == (1, 0, 1, 0, 0)

    def test_terminal_states_frozen(self):
        q = JobQueue()
        q.submit(_request("a"))
        q.fail("a")
        with pytest.raises(ValueError):
            q.admit("a")
        with pytest.raises(ValueError):
            q.complete("a")
        with pytest.raises(ValueError):
            q.fail("a")
        assert _counts(q) == (1, 0, 0, 0, 1)

    def test_admitted_jobs_can_fail(self):
        q = JobQueue()
        q.submit(_request("a"))
        q.admit("a")
        q.fail("a")
        assert _counts(q) == (1, 0, 0, 0, 1)

    def test_pending_excludes_started(self):
        q = JobQueue()
        q.submit(_request("a"))
        q.submit(_request("b"))
        q.admit("a")
        assert [r.name for r in q.pending()] == ["b"]

    def test_pending_count_and_peek_are_constant_time_views(self):
        q = JobQueue()
        assert q.pending_count() == 0
        assert q.peek_pending() is None
        q.submit(_request("a"))
        q.submit(_request("b"))
        assert q.pending_count() == 2
        assert q.peek_pending().name == "a"
        q.admit("a")
        assert q.pending_count() == 1
        assert q.admitted_count() == 1
        assert q.peek_pending().name == "b"
