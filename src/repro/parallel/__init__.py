"""Parallel execution of independent work items.

The paper's evaluation sweeps policies x mixes x budgets; every cell is
independent, which is the exact fan-out shape process pools exploit.
This package provides:

:class:`~repro.parallel.runner.ParallelRunner`
    Fans independent work items over a ``ProcessPoolExecutor`` with a
    graceful serial fallback, per-worker telemetry merged back into the
    parent's registry, and deterministic results regardless of worker
    count.
:mod:`~repro.parallel.seeding`
    ``SeedSequence``-based child-seed derivation: every work item's seed
    is a pure function of ``run_seed`` and the item's identity — never a
    draw from a parent RNG — so serial and parallel runs are
    bit-identical.
:mod:`~repro.parallel.tasks`
    The fan-out tasks: grid cells and site replays.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "runner": ("ParallelRunner", "resolve_workers"),
    "seeding": ("child_seed",),
})
