"""Concrete fan-out tasks: grid cells and site replays.

Module-level task functions (they must pickle by reference) plus thin
orchestration helpers that pair them with a
:class:`~repro.parallel.runner.ParallelRunner`.  Two fan-out shapes
from the paper's evaluation:

grid cells
    :func:`init_grid_worker` / :func:`grid_cell_task` — used by
    :meth:`repro.experiments.grid.ExperimentGrid.run_all`; the prepared
    environment ships once per worker through the pool initializer, and
    each task is just a ``(mix, level, policy)`` key.
site replays
    :func:`site_replays` — replay one arrival stream under many noise
    seeds (confidence intervals over whole simulated shifts), seeds
    derived per replay via :func:`~repro.parallel.seeding.child_seed`.

Imports of the heavier layers happen inside functions: this module is
imported by the grid (and by pool workers at unpickle time), and eager
imports would create cycles with ``repro.experiments.grid``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.parallel.runner import ParallelRunner
from repro.parallel.seeding import child_seed

__all__ = [
    "init_grid_worker",
    "grid_cell_task",
    "site_replays",
]

# ----------------------------------------------------------------------
# grid cells
# ----------------------------------------------------------------------
#: Per-worker grid environment, installed once by the pool initializer so
#: each cell task ships only its (mix, level, policy) key.
_GRID_ENV: Optional[Tuple] = None


def init_grid_worker(config, model, prepared) -> None:
    """Install the prepared grid environment in this worker process."""
    global _GRID_ENV
    _GRID_ENV = (config, model, dict(prepared))


def grid_cell_task(key: Tuple[str, str, str]):
    """Run one grid cell against the installed environment."""
    from repro.experiments.grid import run_grid_cell

    if _GRID_ENV is None:
        raise RuntimeError("grid worker not initialised (init_grid_worker)")
    config, model, prepared = _GRID_ENV
    mix_name, budget_level, policy_name = key
    return run_grid_cell(
        config, model, prepared[mix_name], mix_name, budget_level, policy_name
    )


# ----------------------------------------------------------------------
# site-simulation replays
# ----------------------------------------------------------------------
def _site_replay(payload):
    from repro.core.registry import create_policy
    from repro.manager.site_simulation import run_site_simulation

    (arrivals, cluster, policy_name, budget_w, noise_std, max_batches,
     replay_seed) = payload
    return run_site_simulation(
        arrivals, cluster, create_policy(policy_name), budget_w,
        noise_std=noise_std, max_batches=max_batches, run_seed=replay_seed,
    )


def site_replays(
    arrivals,
    cluster,
    policy_name: str,
    budget_w: float,
    replays: int = 8,
    noise_std: float = 0.004,
    max_batches: int = 100,
    run_seed: int = 0,
    workers: Optional[int] = None,
) -> List:
    """Replay one arrival stream under ``replays`` independent noise seeds.

    Every replay is a full :func:`run_site_simulation` with its own
    ``SeedSequence``-derived seed — the batch-level Monte Carlo the site
    metrics (makespan, turnaround, peak power) need for confidence
    intervals.  Replays are independent, so they fan out per item.
    """
    if replays < 1:
        raise ValueError("replays must be positive")
    runner = ParallelRunner(workers)
    payloads = [
        (list(arrivals), cluster, policy_name, float(budget_w), noise_std,
         max_batches, child_seed(run_seed, "site-replay", index))
        for index in range(replays)
    ]
    return runner.map(_site_replay, payloads)
