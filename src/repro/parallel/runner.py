"""The process-pool fan-out engine with a graceful serial fallback.

:class:`ParallelRunner` maps a pure task function over independent
payloads — grid cells, characterization ladder rungs, site-simulation
replays — across a ``concurrent.futures.ProcessPoolExecutor``.  Design
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
  normally, and ships per-task metric state and events back with the
  result; the parent merges them into the global
  :class:`~repro.telemetry.MetricsRegistry` and replays events on the
  global bus, so a parallel run is as observable as a serial one.

The default worker count honours the ``REPRO_WORKERS`` environment
variable (used by CI to exercise the pool path), falling back to 1.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.parallel.cache import active_cache, activate_cache
from repro.telemetry import (
    ScopedTimer,
    emit,
    enabled,
    get_bus,
    get_registry,
    get_tracer,
    span,
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
def _init_worker(cache_settings: Optional[Tuple[int, Optional[str]]],
                 user_initializer: Optional[Callable],
                 user_initargs: Tuple) -> None:
    """Per-worker setup: isolate telemetry, mirror the parent's caches.

    The telemetry context is replaced (not just cleared) so parent-side
    subscribers — which may hold open file handles — never fire in the
    child.  If the parent had an active characterization cache, the
    worker activates its own with the same settings; a shared ``cache_dir`` lets workers
    reuse each other's entries through the filesystem.
    """
    from repro.telemetry import isolate

    isolate()
    if cache_settings is not None:
        max_entries, cache_dir = cache_settings
        activate_cache(max_entries=max_entries, cache_dir=cache_dir)
    if user_initializer is not None:
        user_initializer(*user_initargs)


def _run_task(
    fn: Callable, payload: object
) -> Tuple[object, Optional[dict], Optional[list], Optional[list]]:
    """Execute one task in a worker and capture its telemetry delta.

    Returns ``(result, metric state, events, spans)``; the trailing three
    are ``None`` when telemetry is disabled.  The task runs under a
    ``parallel.task`` span so the worker's span tree has a single root
    the parent can adopt under its ``parallel.map`` span.
    """
    from repro.telemetry import (
        enabled as _enabled,
        get_bus as _get_bus,
        get_registry as _get_registry,
        get_tracer as _get_tracer,
        reset as _reset,
        span as _span,
    )

    _reset()  # each task ships a clean delta
    with _span("parallel.task", pid=os.getpid()):
        result = fn(payload)
    if not _enabled():
        return result, None, None, None
    return (result, _get_registry().state(), _get_bus().events(),
            _get_tracer().state())


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
        built-in telemetry/cache setup.
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

        cache = active_cache()
        cache_settings = None
        if cache is not None:
            cache_dir = str(cache.cache_dir) if cache.cache_dir else None
            cache_settings = (cache.max_entries, cache_dir)

        registry = get_registry()
        bus = get_bus()
        results: List[object] = []
        with span("parallel.map", tasks=len(payloads),
                  workers=self.workers) as map_sp, \
                ScopedTimer("parallel.runner.map_s"):
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(payloads)),
                    initializer=_init_worker,
                    initargs=(cache_settings, self._initializer,
                              self._initargs),
                ) as pool:
                    futures = [pool.submit(_run_task, fn, p) for p in payloads]
                    for future in futures:
                        result, state, events, spans = future.result()
                        if state is not None and enabled():
                            registry.merge_state(state)
                        if events and enabled():
                            bus.replay(events)
                        if spans and map_sp is not None:
                            # Adopt the worker's span tree under this
                            # map span; when tracing is off in the
                            # parent the shipped spans are dropped,
                            # matching the parent's own recording.
                            get_tracer().merge_state(spans, parent=map_sp)
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
            get_registry().gauge("parallel.runner.workers").set(self.workers)
            emit(
                "parallel.runner", "map_complete",
                tasks=len(payloads), workers=self.workers,
                fallback=bool(self.pool_failures),
            )
        return results
