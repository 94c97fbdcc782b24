"""Power-allocation container and redistribution arithmetic.

The paper's policies are compositions of three redistribution moves:

* *uniform filling* (MixedAdaptive step 3): "uniformly distribute the
  deallocated power among hosts that need more power ... at most up to the
  characterized power.  Repeat until no deallocated power remains, or all
  hosts have been assigned their needed power";
* *weighted filling* (MixedAdaptive step 4, MinimizeWaste surplus): spread
  a pool proportionally to per-host weights, respecting per-host upper
  bounds, iterating as hosts saturate;
* *proportional fitting* (JobAdaptive overflow): scale a set of targets
  down onto a budget, never below the floor.  :func:`fit_to_budget` takes
  rows — one ``(k,)`` target vector and one budget per job, for a group
  of equal-length job blocks — so the per-job rules plan a batch in one
  call per block length; each row equals its own 1-D call bit for bit.

All three are exact water-filling procedures: they terminate in at most
``hosts`` rounds because every round either exhausts the pool or saturates
at least one host, and they conserve power to floating-point accuracy
(pool in == allocation delta + pool out), a property the test suite checks
with hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "PowerAllocation",
    "distribute_uniform",
    "distribute_weighted",
    "fit_to_budget",
]

# Pools below this many watts across a whole cluster are considered spent;
# guards the water-filling loops against float-residue spinning.
_POOL_EPSILON_W = 1.0e-9


@dataclass(frozen=True)
class PowerAllocation:
    """A policy's output: per-host node power caps plus bookkeeping.

    Attributes
    ----------
    policy_name / mix_name:
        Identification.
    budget_w:
        The system budget the policy was given.
    caps_w:
        Per-host node power caps (W), already inside the RAPL-settable
        range.
    unallocated_w:
        Budget the policy chose not to (or could not) place.
    notes:
        Free-form diagnostic scalars (per-policy internals worth logging).
    """

    policy_name: str
    mix_name: str
    budget_w: float
    caps_w: np.ndarray
    unallocated_w: float = 0.0
    notes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.caps_w.ndim != 1 or self.caps_w.size == 0:
            raise ValueError("caps_w must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.caps_w)):
            raise ValueError("caps_w must be finite")

    @property
    def total_allocated_w(self) -> float:
        """Sum of caps."""
        return float(np.sum(self.caps_w))

    def within_budget(self, tolerance_w: float = 1.0e-6) -> bool:
        """Whether the allocation respects the system budget."""
        return self.total_allocated_w <= self.budget_w + tolerance_w


def distribute_uniform(
    pool_w: float,
    allocation_w: np.ndarray,
    upper_bound_w: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Water-fill ``pool_w`` in equal shares among unsaturated hosts.

    Each round grants every host below its bound an equal share of the
    remaining pool, clipped at its bound; freed share from saturating
    hosts rolls into the next round.  Returns ``(new allocation, leftover
    pool)``; leftover is nonzero only when every host reached its bound.
    """
    alloc = np.asarray(allocation_w, dtype=float).copy()
    bounds = np.asarray(upper_bound_w, dtype=float)
    if alloc.shape != bounds.shape:
        raise ValueError("allocation and bounds must share a shape")
    if np.any(bounds + 1e-12 < alloc):
        raise ValueError("upper bounds must be >= current allocation")
    pool = float(pool_w)
    if pool < 0:
        raise ValueError("pool must be non-negative")
    for _ in range(alloc.size + 1):
        if pool <= _POOL_EPSILON_W:
            break
        needy = np.flatnonzero(bounds - alloc > _POOL_EPSILON_W)
        if needy.size == 0:
            break
        share = pool / needy.size
        grant = np.minimum(share, bounds[needy] - alloc[needy])
        alloc[needy] += grant
        pool -= float(np.sum(grant))
    return alloc, max(pool, 0.0)


def distribute_weighted(
    pool_w: float,
    allocation_w: np.ndarray,
    weights: np.ndarray,
    upper_bound_w: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Water-fill ``pool_w`` proportionally to ``weights``, respecting bounds.

    Hosts with non-positive weight receive nothing.  Rounds repeat with
    saturated hosts removed until the pool is spent or no weighted host
    has headroom.  Returns ``(new allocation, leftover pool)``.
    """
    alloc = np.asarray(allocation_w, dtype=float).copy()
    bounds = np.asarray(upper_bound_w, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (alloc.shape == bounds.shape == w.shape):
        raise ValueError("allocation, weights, and bounds must share a shape")
    if np.any(bounds + 1e-12 < alloc):
        raise ValueError("upper bounds must be >= current allocation")
    pool = float(pool_w)
    if pool < 0:
        raise ValueError("pool must be non-negative")
    for _ in range(alloc.size + 1):
        if pool <= _POOL_EPSILON_W:
            break
        eligible = np.flatnonzero((bounds - alloc > _POOL_EPSILON_W) & (w > 0))
        if eligible.size == 0:
            break
        total_weight = float(np.sum(w[eligible]))
        # Normalise before scaling by the pool: multiplying first can
        # underflow to subnormals for tiny weights and break conservation.
        share = pool * (w[eligible] / total_weight)
        grant = np.minimum(share, bounds[eligible] - alloc[eligible])
        alloc[eligible] += grant
        pool -= float(np.sum(grant))
    return alloc, max(pool, 0.0)


def fit_to_budget(
    targets_w: np.ndarray,
    budget_w: float | np.ndarray,
    floor_w: float,
) -> np.ndarray:
    """Scale targets down onto a budget without going below the floor.

    Implements the paper's JobAdaptive overflow rule ("all nodes in the
    job have their power caps reduced by the percentage ... that corrects
    that violation"): the above-floor portion of every target is scaled by
    a common factor; hosts pinned at the floor drop out and the factor is
    recomputed, which terminates in at most ``hosts`` rounds.

    If even all-floor allocation exceeds the budget, the all-floor vector
    is returned (RAPL cannot go lower; the budget is infeasible).

    Rows: ``targets_w`` of shape ``(..., k)`` holds one target vector per
    row and ``budget_w`` one budget per row (shape ``(...)``, or a scalar
    for all).  Every row follows the rule above on its own — it already
    fits, goes all-floor, or scales for at most ``k + 1`` rounds and is
    frozen once it stops — and each row of the result equals the call on
    that row alone bit for bit: a row sum of a C-contiguous ``(R, k)``
    array adds the same ``k`` elements in the same pairwise order as
    ``np.sum`` of the row, and every other step is elementwise.  A 1-D
    call is the one-row case.
    """
    targets = np.array(targets_w, dtype=float)
    floor = float(floor_w)
    if np.any(targets + 1e-12 < floor):
        raise ValueError("targets must be at or above the floor")
    k = targets.shape[-1]
    rows = targets.reshape(math.prod(targets.shape[:-1]), k)
    budgets = np.empty(targets.shape[:-1])
    budgets[...] = budget_w
    budgets = budgets.reshape(-1)
    sums = rows.sum(axis=-1)
    # Rows that already fit keep their targets; of the rest, those whose
    # all-floor state exceeds the budget go all-floor and the others scale.
    live = (~(sums <= budgets)).nonzero()[0]
    if not live.size:
        return targets
    budgets = budgets[live]
    infeasible = k * floor >= budgets
    if infeasible.any():
        rows[live[infeasible]] = floor
        feasible = ~infeasible
        live, budgets = live[feasible], budgets[feasible]
    scaled, sums = rows[live], sums[live]
    for _ in range(k + 1):
        excess = sums - budgets
        spent = excess <= _POOL_EPSILON_W
        if spent.all():
            break
        above = scaled - floor
        movable = above.sum(axis=-1)
        # A row whose excess or movable power is spent stops, frozen.
        going = ~(spent | (movable <= _POOL_EPSILON_W))
        if not going.all():
            live, budgets, excess, above, movable = (
                live[going], budgets[going], excess[going], above[going],
                movable[going],
            )
            if not live.size:
                break
        factor = 1.0 - excess / movable
        # ``max(0.0, factor)``, NaN included.
        factor = np.where(factor > 0.0, factor, 0.0)
        scaled = floor + above * factor[:, None]
        rows[live] = scaled
        sums = scaled.sum(axis=-1)
    return targets
