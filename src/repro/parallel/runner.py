"""The process-pool fan-out engine with a graceful serial fallback.

:class:`ParallelRunner` maps a pure task function over independent
payloads — grid cells, site-simulation replays, facility clusters —
across a ``concurrent.futures.ProcessPoolExecutor``.  Design
rules that keep parallel runs trustworthy:

* **Determinism.**  Tasks must be pure functions of their payload; any
  randomness comes from seeds embedded in the payload (derived via
  :mod:`repro.parallel.seeding`), so results are identical for any
  worker count.  Results are returned in payload order regardless of
  completion order.
* **Graceful degradation.**  ``workers=1`` (or a single payload) never
  touches multiprocessing.  If the pool dies mid-run
  (``BrokenProcessPool``) or cannot be used at all (sandboxed
  environments, unpicklable payloads), the remaining items run serially
  in-process and the incident is recorded as a telemetry event — the
  answer is always produced.
* **Telemetry.**  Each worker isolates its telemetry context, records
  normally, and ships per-task metric state and its exact per-source
  event counts and per-name span totals back with the result.  While
  the parent is recording (:func:`repro.telemetry.recording`) the
  worker records too and also ships its events, spans and both rings'
  drop counts.  The parent merges everything into the global
  :class:`~repro.telemetry.MetricsRegistry`, bus and tracer, so a
  parallel run is as observable as a serial one.

The default worker count honours the ``REPRO_WORKERS`` environment
variable (used by CI to exercise the pool path), falling back to 1.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry import (
    emit,
    enabled,
    get_bus,
    get_registry,
    get_tracer,
    is_recording,
    span,
    tracing_enabled,
)

__all__ = ["ParallelRunner", "resolve_workers", "WORKERS_ENV"]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count.

    ``None`` consults ``$REPRO_WORKERS`` and defaults to 1 (serial).
    Anything below 1 is rejected — the CLI maps this to an argparse
    error.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be a positive integer, got {env!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# worker-side plumbing (module-level so it pickles by reference)
# ----------------------------------------------------------------------
def _init_worker(user_initializer: Optional[Callable],
                 user_initargs: Tuple) -> None:
    """Per-worker setup: isolate telemetry, then the user initializer.

    The telemetry context is replaced (not just cleared) so parent-side
    subscribers — which may hold open file handles — never fire in the
    child.
    """
    from repro.telemetry import isolate

    isolate()
    if user_initializer is not None:
        user_initializer(*user_initargs)


def _run_task(fn: Callable, payload: object,
              record: bool) -> Tuple[object, Optional[dict]]:
    """Execute one task in a worker and capture its telemetry delta.

    Returns ``(result, telemetry)``; ``telemetry`` is ``None`` when
    telemetry is disabled.  With ``record`` (the parent is recording)
    the task runs inside :func:`~repro.telemetry.recording` and its
    events and spans ship too; the task's ``parallel.task`` span is then
    the worker tree's single root, which the parent adopts under its
    ``parallel.map`` span.
    """
    from contextlib import nullcontext

    from repro.telemetry import (
        enabled as _enabled,
        get_bus as _get_bus,
        get_registry as _get_registry,
        get_tracer as _get_tracer,
        recording as _recording,
        reset as _reset,
        span as _span,
    )

    _reset()  # each task ships a clean delta
    with _recording() if record else nullcontext():
        with _span("parallel.task", pid=os.getpid()):
            result = fn(payload)
    if not _enabled():
        return result, None
    bus, tracer = _get_bus(), _get_tracer()
    return result, {
        "metrics": _get_registry().state(),
        "events": bus.events(),
        "event_counts": bus.counts_by_source(),
        "events_dropped": bus.dropped,
        "spans": tracer.state(),
        "span_totals": tracer.totals(),
        "spans_dropped": tracer.dropped,
    }


class ParallelRunner:
    """Maps pure tasks over payloads, in-process or across a pool.

    Parameters
    ----------
    workers:
        Pool size; ``None`` reads ``$REPRO_WORKERS`` (default 1).
        ``1`` is a strict serial mode with zero multiprocessing
        machinery.
    initializer / initargs:
        Optional per-worker setup (e.g. building a shared environment
        once per process instead of once per task).  Runs after the
        built-in telemetry setup.
    """

    def __init__(self, workers: Optional[int] = None,
                 initializer: Optional[Callable] = None,
                 initargs: Tuple = ()) -> None:
        self.workers = resolve_workers(workers)
        self._initializer = initializer
        self._initargs = initargs
        self.pool_failures = 0

    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether this runner will attempt a process pool."""
        return self.workers > 1

    def _serial(self, fn: Callable, payloads: Sequence[object],
                done: Optional[List[object]] = None) -> List[object]:
        """Run (the remaining) payloads in-process."""
        results = list(done) if done is not None else []
        if self._initializer is not None:
            # Serial mode (and the mid-run fallback) still honours the
            # user initializer so the task function sees the same module
            # state as in a worker; initializers must be idempotent.
            self._initializer(*self._initargs)
        for payload in payloads[len(results):]:
            results.append(fn(payload))
        return results

    def map(self, fn: Callable, payloads: Iterable[object]) -> List[object]:
        """Apply ``fn`` to every payload; results in payload order.

        Tasks must be module-level callables with picklable payloads and
        results.  Telemetry recorded inside tasks is merged back into
        the parent's global registry/bus whether the run was serial or
        pooled.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if not self.parallel or len(payloads) == 1:
            return self._serial(fn, payloads)
        # Only a pooled map pays for multiprocessing's import.
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        registry = get_registry()
        bus = get_bus()
        results: List[object] = []
        with span("parallel.map", tasks=len(payloads),
                  workers=self.workers) as map_sp:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(payloads)),
                    initializer=_init_worker,
                    initargs=(self._initializer, self._initargs),
                ) as pool:
                    record = is_recording()
                    futures = [pool.submit(_run_task, fn, p, record)
                               for p in payloads]
                    for future in futures:
                        result, shipped = future.result()
                        if shipped is not None and enabled():
                            registry.merge_state(shipped["metrics"])
                            bus.replay(shipped["events"],
                                       counts=shipped["event_counts"],
                                       dropped=shipped["events_dropped"])
                        if shipped is not None and tracing_enabled():
                            # Adopt the worker's span tree (shipped only
                            # while recording) under this map span and
                            # add its totals; when tracing is off in the
                            # parent both are dropped, matching the
                            # parent's own spans.
                            tracer = get_tracer()
                            tracer.merge_state(
                                shipped["spans"], parent=map_sp,
                                totals=shipped["span_totals"],
                                dropped=shipped["spans_dropped"],
                            )
                            if map_sp is None:
                                # Totals-only: the task's wall is still
                                # the map span's child time.
                                tracer.adopt_child_wall(
                                    shipped["span_totals"]["parallel.task"]
                                    ["wall_s"])
                        results.append(result)
            except (BrokenProcessPool, pickle.PicklingError, AttributeError,
                    OSError, ImportError) as exc:
                # The pool died or could not start: finish the job
                # serially.  Completed prefix results are kept; tasks are
                # pure, so re-running the rest in-process is safe.
                # (AttributeError is how CPython reports an unpicklable
                # local callable; a genuine task AttributeError re-raises
                # from the serial re-run below.)
                self.pool_failures += 1
                if enabled():
                    get_registry().counter("parallel.runner.pool_failures").inc()
                    emit(
                        "parallel.runner", "pool_fallback",
                        error=type(exc).__name__, detail=str(exc)[:200],
                        completed=len(results), total=len(payloads),
                    )
                results = self._serial(fn, payloads, done=results)
        if enabled():
            get_registry().counter("parallel.runner.tasks").inc(len(payloads))
            emit(
                "parallel.runner", "map_complete",
                tasks=len(payloads), workers=self.workers,
                fallback=bool(self.pool_failures),
            )
        return results
