"""Hierarchical tracing: where the time went, not just how much.

The metrics registry answers *how much* (exact counts and sums); the
event bus answers *what happened*; neither answers *where in the call
tree*.  This module adds the third leg: :class:`Span` records one timed
scope with a parent link, so a grid run decomposes into
``experiments.grid.run_all -> experiments.grid.cell ->
manager.launch_batch -> sim.simulate_cap_batch`` and
the paper's layer-attribution argument (resource manager vs runtime
agent vs hardware) can be made about our own reproduction.

Design rules, mirroring the rest of :mod:`repro.telemetry`:

* **Zero configuration.**  Instrumented code calls the module-level
  :func:`span` context manager; spans nest through a per-thread stack on
  the process-global :class:`Tracer` (:func:`get_tracer`).
* **Cheap when off.**  :func:`set_tracing` (and the global telemetry
  switch) turn the whole thing into a ``yield None``; the overhead gate
  (< 2 % on ``simulate_mix``, ``benchmarks/test_bench_trace_overhead.py``)
  is asserted in CI.
* **Physics-blind.**  Tracing never touches a simulation RNG stream —
  tracing-on and tracing-off runs are bit-identical, pinned by
  ``tests/property/test_tracing_properties.py``.
* **Mergeable.**  A worker process ships :meth:`Tracer.state` back with
  its results; :meth:`Tracer.merge_state` grafts the shipped trees under
  the parent's active span, exactly as
  :meth:`~repro.telemetry.metrics.MetricsRegistry.merge_state` folds
  metrics and :meth:`~repro.telemetry.events.EventBus.replay` replays
  events.

Each span records wall time (``perf_counter``), CPU time
(``process_time``) and free-form attributes.  It never reads the metrics
registry: counters are whole-run sums, kept exactly in one place.

Timing is spans' alone: besides the finished-span ring, the tracer
keeps one exact aggregate per span name (count, wall, self and CPU
seconds; :meth:`Tracer.totals`), updated as each span finishes, so the
summary, the profile and the provenance ledger read whole-run figures
however many spans the ring has evicted.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "span",
    "current_span",
    "set_tracing",
    "tracing_enabled",
    "span_forest",
    "validate_span_tree",
]

#: Schema tag written into exported span dicts / trace files.
TRACE_SCHEMA = "repro.trace.v2"

_SPAN_FIELDS = (
    "name", "span_id", "trace_id", "parent_id", "start_unix", "end_unix",
    "wall_s", "cpu_s", "attributes", "status",
)


@dataclass
class Span:
    """One timed scope in the call tree.

    Attributes
    ----------
    name:
        Dotted ``layer.component.operation`` scope name.
    span_id / trace_id / parent_id:
        Identity: ``span_id`` is unique per process (pid-prefixed, so
        merged cross-process trees never collide), ``trace_id`` is the
        root span's id, ``parent_id`` is ``None`` on roots.
    start_unix / end_unix:
        Wall-clock bounds (``time.time``) — comparable across processes
        on one machine, which is what the nesting validation of merged
        trees relies on.
    wall_s / cpu_s:
        Elapsed ``perf_counter`` / ``process_time`` seconds (monotonic,
        exact within the process).
    attributes:
        Flat JSON-serialisable details set at entry or via
        :meth:`set_attribute`.
    status:
        ``"ok"``, or ``"error"`` when the scope raised.
    child_wall_s:
        Wall seconds of the finished direct children (self time is
        ``wall_s`` minus this); not part of the wire format.
    """

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str] = None
    start_unix: float = 0.0
    end_unix: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    child_wall_s: float = field(default=0.0, repr=False, compare=False)

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one attribute to the (open or finished) span."""
        self.attributes[str(key)] = value

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict form (the :meth:`Tracer.state` wire format)."""
        return {f: getattr(self, f) for f in _SPAN_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(**{f: data[f] for f in _SPAN_FIELDS})  # type: ignore[arg-type]


class Tracer:
    """Collects finished spans and tracks the per-thread open stack.

    Every finished span also lands in an exact per-name aggregate
    (:meth:`totals`) that the ring's evictions never touch.

    Parameters
    ----------
    capacity:
        Finished-span ring size; the oldest spans are dropped once
        exceeded (recent history without unbounded memory, like the
        event bus) and counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._finished: deque = deque(maxlen=capacity)
        #: Spans evicted by the ring since construction or :meth:`clear`.
        self.dropped = 0
        #: name -> [count, wall_s, self_s, cpu_s] over every finished span.
        self._totals: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- identity ------------------------------------------------------
    def _new_id(self) -> str:
        with self._lock:
            self._next_id += 1
            seq = self._next_id
        return f"{os.getpid():x}-{seq:x}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- recording -----------------------------------------------------
    def start(self, name: str, **attributes: object) -> Span:
        """Open a span under the thread's current span (or as a root)."""
        stack = self._stack()
        span_id = self._new_id()
        if stack:
            parent = stack[-1]
            parent_id, trace_id = parent.span_id, parent.trace_id
        else:
            parent_id, trace_id = None, span_id
        record = Span(
            name=name, span_id=span_id, trace_id=trace_id,
            parent_id=parent_id, start_unix=time.time(),
            attributes=dict(attributes),
        )
        stack.append(record)
        return record

    def finish(self, record: Span, status: str = "ok") -> None:
        """Close the span, add it to its name's totals and move it to the
        finished ring.

        Self time is the span's wall minus its finished direct
        children's, clamped at 0; the span's own wall accrues on its
        open parent for the same subtraction.
        """
        stack = self._stack()
        if record in stack:
            # Close any abandoned children first (exception unwinding).
            while stack and stack[-1] is not record:
                stack.pop()
            stack.pop()
        if stack and stack[-1].span_id == record.parent_id:
            stack[-1].child_wall_s += record.wall_s
        record.end_unix = time.time()
        record.status = status
        self_s = max(0.0, record.wall_s - record.child_wall_s)
        with self._lock:
            self._add(record.name, 1, record.wall_s, self_s, record.cpu_s)
            self._keep(record)

    def _add(self, name: str, count: int, wall_s: float, self_s: float,
             cpu_s: float) -> None:
        """Fold one name's figures into the totals (lock held)."""
        row = self._totals.setdefault(name, [0, 0.0, 0.0, 0.0])
        row[0] += count
        row[1] += wall_s
        row[2] += self_s
        row[3] += cpu_s

    def _keep(self, record: Span) -> None:
        """Ring one finished span, counting the one it evicts (lock
        held)."""
        if len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(record)

    def current(self) -> Optional[Span]:
        """The thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- reading back --------------------------------------------------
    def finished(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans, oldest first, optionally filtered by name."""
        with self._lock:
            out = list(self._finished)
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def __len__(self) -> int:
        """Finished spans currently held."""
        return len(self._finished)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Exact per-name ``{count, wall_s, self_s, cpu_s}`` over every
        span finished (or merged) since construction or :meth:`clear`,
        largest self time first."""
        with self._lock:
            rows = sorted(self._totals.items(), key=lambda kv: -kv[1][2])
        return {
            name: {"count": int(count), "wall_s": wall_s,
                   "self_s": self_s, "cpu_s": cpu_s}
            for name, (count, wall_s, self_s, cpu_s) in rows
        }

    def clear(self) -> None:
        """Drop finished spans, the totals and the drop count (open
        stacks are left alone)."""
        with self._lock:
            self._finished.clear()
            self._totals.clear()
            self.dropped = 0

    # -- cross-process merging -----------------------------------------
    def state(self) -> List[Dict[str, object]]:
        """Finished spans as JSON/pickle-ready dicts (the wire format a
        worker ships back with its results)."""
        return [s.to_dict() for s in self.finished()]

    def merge_state(
        self,
        state: Sequence[Mapping[str, object]],
        parent: Optional[Span] = None,
        totals: Optional[Mapping[str, Mapping[str, float]]] = None,
        dropped: int = 0,
    ) -> List[Span]:
        """Graft shipped spans into this tracer's finished ring.

        Spans whose parent did not ship (worker roots, or spans orphaned
        by the worker's ring overflow) are re-parented under ``parent``
        (default: the calling thread's current span), and every span of
        an adopted trace is moved onto the adopter's ``trace_id`` — so a
        merged forest stays well-formed: one root per trace, no orphans.
        The adopted spans' wall counts as ``parent``'s children's.

        ``totals`` (the shipping tracer's :meth:`totals`) and
        ``dropped`` (its ring evictions) add into this tracer's own.
        Returns the merged spans.
        """
        if parent is None:
            parent = self.current()
        spans = [Span.from_dict(d) for d in state]
        shipped_ids = {s.span_id for s in spans}
        remapped_traces: Dict[str, str] = {}
        for record in spans:
            if record.parent_id not in shipped_ids:
                if parent is not None:
                    record.parent_id = parent.span_id
                    remapped_traces[record.trace_id] = parent.trace_id
                    parent.child_wall_s += record.wall_s
                else:
                    record.parent_id = None
                    remapped_traces.setdefault(record.trace_id, record.trace_id)
        for record in spans:
            record.trace_id = remapped_traces.get(record.trace_id,
                                                  record.trace_id)
        with self._lock:
            for record in spans:
                self._keep(record)
            for name, row in (totals or {}).items():
                self._add(name, row["count"], row["wall_s"], row["self_s"],
                          row["cpu_s"])
            self.dropped += dropped
        return spans

    # -- export --------------------------------------------------------
    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the finished spans as a ``{schema, spans}`` JSON file."""
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": TRACE_SCHEMA, "spans": self.state()}
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n",
                        encoding="utf-8")
        return path


# ----------------------------------------------------------------------
# the process-global tracer + switch
# ----------------------------------------------------------------------
_tracing: bool = True
_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def set_tracing(flag: bool) -> bool:
    """Switch span recording on/off; returns the previous state.

    Tracing also honours the global telemetry switch
    (:func:`repro.telemetry.set_enabled`): spans record only when *both*
    are on.
    """
    global _tracing
    previous = _tracing
    _tracing = bool(flag)
    return previous


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded (both switches on)."""
    from repro.telemetry import context

    return _tracing and context.enabled()


def _reset_tracer() -> None:
    """Replace the global tracer (fresh worker context; see
    :func:`repro.telemetry.isolate`)."""
    global _tracer
    _tracer = Tracer()


def current_span() -> Optional[Span]:
    """The calling thread's innermost open span on the global tracer."""
    return _tracer.current()


@contextmanager
def span(name: str, **attributes: object) -> Iterator[Optional[Span]]:
    """Record one hierarchical span around the ``with`` block.

    Yields the open :class:`Span` (so the block can
    :meth:`~Span.set_attribute` results) or ``None`` when tracing is
    off — callers must guard attribute writes with ``if sp is not None``
    or use the walrus-free pattern ``sp and sp.set_attribute(...)``.

    Wall time comes from ``perf_counter``, CPU time from
    ``process_time``.
    """
    if not tracing_enabled():
        yield None
        return
    tracer = _tracer
    record = tracer.start(name, **attributes)
    start_wall = time.perf_counter()
    start_cpu = time.process_time()
    status = "ok"
    try:
        yield record
    except BaseException:
        status = "error"
        raise
    finally:
        record.wall_s = time.perf_counter() - start_wall
        record.cpu_s = time.process_time() - start_cpu
        tracer.finish(record, status=status)


# ----------------------------------------------------------------------
# well-formedness
# ----------------------------------------------------------------------
def span_forest(
    spans: Sequence[Span],
) -> Dict[str, Dict[str, List[Span]]]:
    """Group spans into ``{trace_id: {"roots": [...], "spans": [...]}}``."""
    forest: Dict[str, Dict[str, List[Span]]] = {}
    for record in spans:
        entry = forest.setdefault(record.trace_id,
                                  {"roots": [], "spans": []})
        entry["spans"].append(record)
        if record.parent_id is None:
            entry["roots"].append(record)
    return forest


def validate_span_tree(
    spans: Sequence[Span], nesting_slack_s: float = 0.05
) -> List[str]:
    """Check the structural invariants of a finished span set.

    Returns a list of human-readable problems (empty = well-formed):

    * every trace has exactly one root;
    * every non-root's parent exists, in the same trace (no orphans);
    * the parent graph is acyclic;
    * each child's ``[start_unix, end_unix]`` interval nests inside its
      parent's, within ``nesting_slack_s`` (wall-clock comparisons may
      cross process boundaries, so exact containment is not required).
    """
    problems: List[str] = []
    by_id: Dict[str, Span] = {}
    for record in spans:
        if record.span_id in by_id:
            problems.append(f"duplicate span_id {record.span_id}")
        by_id[record.span_id] = record

    for trace_id, entry in span_forest(spans).items():
        n_roots = len(entry["roots"])
        if n_roots != 1:
            problems.append(
                f"trace {trace_id} has {n_roots} roots (expected 1)"
            )

    for record in spans:
        if record.parent_id is None:
            continue
        parent = by_id.get(record.parent_id)
        if parent is None:
            problems.append(
                f"span {record.span_id} ({record.name}) is orphaned: "
                f"parent {record.parent_id} not present"
            )
            continue
        if parent.trace_id != record.trace_id:
            problems.append(
                f"span {record.span_id} ({record.name}) crosses traces: "
                f"{record.trace_id} vs parent's {parent.trace_id}"
            )
        if record.start_unix < parent.start_unix - nesting_slack_s or \
                record.end_unix > parent.end_unix + nesting_slack_s:
            problems.append(
                f"span {record.span_id} ({record.name}) interval "
                f"[{record.start_unix:.6f}, {record.end_unix:.6f}] not "
                f"nested in parent {parent.span_id} ({parent.name}) "
                f"[{parent.start_unix:.6f}, {parent.end_unix:.6f}]"
            )

    # Cycle check over the parent graph.
    seen_ok: set = set()
    for record in spans:
        path: set = set()
        node: Optional[Span] = record
        while node is not None and node.span_id not in seen_ok:
            if node.span_id in path:
                problems.append(
                    f"cycle in parent chain at span {node.span_id}"
                )
                break
            path.add(node.span_id)
            node = by_id.get(node.parent_id) if node.parent_id else None
        seen_ok.update(path)
    return problems
