"""Parallel execution & characterization caching.

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
:class:`~repro.parallel.cache.CharacterizationCache`
    Content-addressed memoization of ``characterize_mix`` /
    ``simulate_mix`` keyed by a stable hash of (mix spec, model
    parameters, caps, options), with an in-memory LRU plus an optional
    on-disk JSON store.
"""

from repro.parallel.cache import (
    CharacterizationCache,
    activate_cache,
    active_cache,
    deactivate_cache,
    stable_digest,
)
from repro.parallel.runner import ParallelRunner, resolve_workers
from repro.parallel.seeding import child_seed, child_seeds

__all__ = [
    "CharacterizationCache",
    "ParallelRunner",
    "activate_cache",
    "active_cache",
    "deactivate_cache",
    "stable_digest",
    "resolve_workers",
    "child_seed",
    "child_seeds",
]
