"""Job submission records and the admission queue.

A thin but faithful model of resource-manager admission: users submit
:class:`JobRequest` objects (a kernel configuration, a node count, and an
optional user-supplied power hint — how the ``Precharacterized`` policy's
"user submits the job with a cap" workflow enters the system), and the
queue owns their lifecycle.  Requests are immutable, so one request can
be submitted to any number of queues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.workload.job import Job
from repro.workload.kernel import KernelConfig

__all__ = ["JobRequest", "JobQueue"]


@dataclass(frozen=True, init=False)
class JobRequest:
    """One user submission (immutable).

    Attributes
    ----------
    name:
        User-visible job name (unique among a queue's live jobs).
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

    def __init__(self, name: str, config: KernelConfig, node_count: int,
                 iterations: int = 100,
                 power_hint_w: Optional[float] = None) -> None:
        if node_count < 1:
            raise ValueError("node_count must be positive")
        if iterations < 1:
            raise ValueError("iterations must be positive")
        if power_hint_w is not None and power_hint_w <= 0:
            raise ValueError("power_hint_w must be positive when given")
        # The generated frozen __init__ sets each field through
        # object.__setattr__, about 1.5x the cost of these direct writes
        # on a stream of tens of thousands of requests.
        fields = self.__dict__
        fields["name"] = name
        fields["config"] = config
        fields["node_count"] = node_count
        fields["iterations"] = iterations
        fields["power_hint_w"] = power_hint_w

    def to_job(self) -> Job:
        """Materialise the workload-layer job."""
        return Job(
            name=self.name,
            config=self.config,
            node_count=self.node_count,
            iterations=self.iterations,
        )


class JobQueue:
    """FIFO admission queue that owns each job's lifecycle.

    A job is PENDING from :meth:`submit`, ADMITTED from :meth:`admit`,
    and ends COMPLETED (:meth:`complete`, from ADMITTED) or FAILED
    (:meth:`fail`, from either live state).  A transition from any other
    state raises ``ValueError`` and changes nothing.

    Only live jobs are held, in two insertion-ordered dicts (pending in
    submission order, then admitted), so memory is bounded by the active
    population and :meth:`pending` costs O(pending jobs).  An ended job
    leaves only its count: ``submitted == pending_count() +
    admitted_count() + completed + failed`` after every call.
    """

    def __init__(self) -> None:
        self._pending: Dict[str, JobRequest] = {}
        self._admitted: Dict[str, JobRequest] = {}
        self.submitted = 0
        self.completed = 0
        self.failed = 0

    def submit(self, request: JobRequest) -> None:
        """Queue a request as pending; live names must be unique."""
        name = request.name
        if name in self._pending or name in self._admitted:
            raise ValueError(f"job {name!r} already queued")
        self._pending[name] = request
        self.submitted += 1

    def admit(self, name: str) -> None:
        """PENDING -> ADMITTED."""
        request = self._pending.pop(name, None)
        if request is None:
            raise ValueError(f"cannot admit job {name!r}: not pending")
        self._admitted[name] = request

    def complete(self, name: str) -> None:
        """ADMITTED -> COMPLETED; the job's record is dropped."""
        if self._admitted.pop(name, None) is None:
            raise ValueError(f"cannot complete job {name!r}: not admitted")
        self.completed += 1

    def fail(self, name: str) -> None:
        """PENDING or ADMITTED -> FAILED; the job's record is dropped."""
        if self._pending.pop(name, None) is None \
                and self._admitted.pop(name, None) is None:
            raise ValueError(f"cannot fail job {name!r}: not live")
        self.failed += 1

    def pending(self) -> List[JobRequest]:
        """Pending requests in submission order."""
        return list(self._pending.values())

    def pending_count(self) -> int:
        """Number of pending requests, O(1)."""
        return len(self._pending)

    def admitted_count(self) -> int:
        """Number of admitted (not yet ended) requests, O(1)."""
        return len(self._admitted)

    def peek_pending(self) -> Optional[JobRequest]:
        """The head-of-queue pending request, O(1) (None when empty)."""
        if not self._pending:
            return None
        return next(iter(self._pending.values()))

    def get(self, name: str) -> JobRequest:
        """Look up a live (pending or admitted) request by name."""
        request = self._admitted.get(name) or self._pending.get(name)
        if request is None:
            raise KeyError(f"no live job named {name!r}")
        return request

    def __len__(self) -> int:
        """Number of live (pending or admitted) jobs."""
        return len(self._pending) + len(self._admitted)
