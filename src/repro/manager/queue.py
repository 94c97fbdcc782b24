"""Job submission records and the admission queue.

A thin but faithful model of resource-manager admission: users submit
:class:`JobRequest` objects (a kernel configuration, a node count, and an
optional user-supplied power hint — how the ``Precharacterized`` policy's
"user submits the job with a cap" workflow enters the system), and the
queue tracks their lifecycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.workload.job import Job
from repro.workload.kernel import KernelConfig

__all__ = ["JobState", "JobRequest", "JobQueue"]


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    ALLOCATED = "allocated"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class JobRequest:
    """One user submission.

    Attributes
    ----------
    name:
        User-visible job name (unique within a queue).
    config:
        Kernel configuration to run.
    node_count:
        Requested nodes.
    iterations:
        Bulk-synchronous iterations to run.
    power_hint_w:
        Optional user-supplied per-node power expectation (the
        Precharacterized workflow); ``None`` when the user provides none.
    """

    name: str
    config: KernelConfig
    node_count: int
    iterations: int = 100
    power_hint_w: Optional[float] = None
    state: JobState = field(default=JobState.PENDING, init=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.power_hint_w is not None and self.power_hint_w <= 0:
            raise ValueError("power_hint_w must be positive when given")

    def to_job(self) -> Job:
        """Materialise the workload-layer job."""
        return Job(
            name=self.name,
            config=self.config,
            node_count=self.node_count,
            iterations=self.iterations,
        )


#: Legal lifecycle transitions, hoisted out of :meth:`JobQueue.mark` —
#: the streaming engine marks every job three times (allocated, running,
#: completed), so rebuilding this table per call showed up in profiles.
_VALID_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.PENDING: frozenset({JobState.ALLOCATED, JobState.FAILED}),
    JobState.ALLOCATED: frozenset({JobState.RUNNING, JobState.FAILED}),
    JobState.RUNNING: frozenset({JobState.COMPLETED, JobState.FAILED}),
    JobState.COMPLETED: frozenset(),
    JobState.FAILED: frozenset(),
}


class JobQueue:
    """FIFO admission queue with state tracking.

    Pending membership is tracked incrementally (an insertion-ordered
    dict maintained by :meth:`submit` / :meth:`mark`), so :meth:`pending`
    costs O(pending jobs) rather than O(every job ever submitted) — the
    property the streaming site engine relies on to sustain heavy
    arrival traffic.  Terminal records can be released with
    :meth:`forget` to keep long-lived queues memory-bounded.
    """

    def __init__(self) -> None:
        self._requests: Dict[str, JobRequest] = {}
        # Insertion-ordered view of the PENDING subset; submission order
        # equals insertion order because names are submitted exactly once
        # and no lifecycle transition re-enters PENDING.
        self._pending: Dict[str, JobRequest] = {}

    def submit(self, request: JobRequest) -> None:
        """Admit a pending request; names must be unique."""
        if request.name in self._requests:
            raise ValueError(f"job {request.name!r} already queued")
        if request.state is not JobState.PENDING:
            raise ValueError(
                f"job {request.name!r} is {request.state.value}, not pending"
            )
        self._requests[request.name] = request
        self._pending[request.name] = request

    def pending(self) -> List[JobRequest]:
        """Pending requests in submission order."""
        return list(self._pending.values())

    def pending_count(self) -> int:
        """Number of pending requests, O(1)."""
        return len(self._pending)

    def peek_pending(self) -> Optional[JobRequest]:
        """The head-of-queue pending request, O(1) (None when empty)."""
        if not self._pending:
            return None
        return next(iter(self._pending.values()))

    def get(self, name: str) -> JobRequest:
        """Look up a request by name."""
        try:
            return self._requests[name]
        except KeyError:
            raise KeyError(f"no job named {name!r}") from None

    def mark(self, name: str, state: JobState) -> None:
        """Transition a job's state (validated against the lifecycle)."""
        request = self.get(name)
        if state not in _VALID_TRANSITIONS[request.state]:
            raise ValueError(
                f"illegal transition {request.state.value} -> {state.value} "
                f"for job {name!r}"
            )
        if request.state is JobState.PENDING:
            self._pending.pop(name, None)
        request.state = state

    def forget(self, name: str) -> None:
        """Release a terminal (completed/failed) request's record.

        Long-lived streaming queues call this after accounting for a
        job so memory stays bounded by the *active* population rather
        than the total ever submitted.  Forgetting a live job would
        corrupt admission; that is rejected.
        """
        request = self.get(name)
        if request.state not in (JobState.COMPLETED, JobState.FAILED):
            raise ValueError(
                f"cannot forget job {name!r} in state {request.state.value}"
            )
        del self._requests[name]

    def __len__(self) -> int:
        return len(self._requests)
