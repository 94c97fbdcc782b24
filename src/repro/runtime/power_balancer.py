"""The power balancer agent: GEOPM's critical-path power shifting.

Paper §II/§IV-B: "The power balancer agent reduces the power limit where it
does not impact performance, and redistributes that power where it can
improve performance, all during execution."  For a bulk-synchronous job the
performance signal is the epoch (iteration) time: only hosts on the
critical path determine it, so any host finishing early can be slowed —
its RAPL limit lowered — until its compute phase just meets the critical
path, with the freed budget offered to the hosts that *are* the critical
path.

The implementation is a model-free feedback loop, as on real hardware: the
agent never consults the simulator's power/performance model, only the
observed per-epoch host times and limits.  Each epoch it

1. measures each host's slack fraction against the epoch's critical path,
2. cuts limits on hosts with slack beyond a dead-band ``margin``,
   proportionally to their slack (gain-scheduled, floor-clamped),
3. pools the cut power plus any undistributed carry-over, and
4. grants the pool to near-critical hosts, weighted by their remaining
   headroom to TDP.

Convergence is declared when limits stop moving (relative step below
``tolerance``).  The converged *consumption* is the paper's metric (b) —
"the minimum power each workload needs" (Fig. 5) — which the
characterization layer cross-checks against the analytic inverse model in
:meth:`repro.sim.engine.ExecutionModel.required_power`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.runtime.agent import (
    Agent,
    AgentBatch,
    PlatformSample,
    RowState,
    SampleBatch,
    batch_options,
    finite_or_sentinel,
)
from repro.telemetry import emit, enabled, get_registry
from repro.units import ensure_positive, ensure_fraction

__all__ = ["BalancerOptions", "PowerBalancerAgent"]


@dataclass(frozen=True)
class BalancerOptions:
    """Tuning of the balancer feedback loop.

    Attributes
    ----------
    gain:
        Fraction of the proportional correction applied per epoch.  Higher
        converges faster but can oscillate with noisy epoch times.
    margin:
        Dead-band around the critical path: hosts within ``margin`` of the
        epoch time are treated as critical and never cut.  This is the
        balancer's safety margin against cutting into the critical path
        itself.
    tolerance:
        Relative limit movement below which the loop declares convergence.
    min_limit_w / max_limit_w:
        Node-level RAPL bounds (Quartz: 136 W floor, 240 W TDP).
    harvest_fraction:
        How much of a host's apparent power slack the balancer is willing
        to harvest.  GEOPM's production loop is conservative — bounded
        steps, a safety margin around the critical path — and the paper's
        Fig. 5 shows waiting nodes settling roughly halfway between their
        unconstrained draw and the theoretical minimum; 0.5 reproduces
        that (see
        :data:`repro.characterization.mix_characterization.DEFAULT_HARVEST_FRACTION`).
        Set 1.0 for an idealised balancer.
    """

    gain: float = 0.5
    margin: float = 0.02
    tolerance: float = 1.0e-3
    min_limit_w: float = 136.0
    max_limit_w: float = 240.0
    harvest_fraction: float = 0.5

    def __post_init__(self) -> None:
        ensure_positive(self.gain, "gain")
        ensure_fraction(self.margin, "margin")
        ensure_positive(self.tolerance, "tolerance")
        ensure_positive(self.min_limit_w, "min_limit_w")
        if self.max_limit_w <= self.min_limit_w:
            raise ValueError("max_limit_w must exceed min_limit_w")
        if not 0.0 < self.harvest_fraction <= 1.0:
            raise ValueError("harvest_fraction must be in (0, 1]")


@dataclass
class _BalancerState(RowState):
    """The balancer loop's state (row shape ``()`` or ``(G,)``)."""

    limits_w: Optional[np.ndarray]     # (..., hosts) limits programmed
    cut_floor_w: Optional[np.ndarray]  # (..., hosts) lowest limit a cut reaches
    pool_w: np.ndarray                 # budget held back, not programmed
    last_step_w: np.ndarray            # largest limit move of the last step
    steps: np.ndarray                  # feedback steps taken
    harvested_w: np.ndarray            # power cut from donors, cumulative
    redistributed_w: np.ndarray        # power granted to receivers, cumulative
    recorded: np.ndarray               # ``converged`` event already emitted

    @classmethod
    def fresh(cls, rows=()) -> "_BalancerState":
        return cls(None, None, np.zeros(rows), np.full(rows, np.inf),
                   np.zeros(rows, dtype=np.int64), np.zeros(rows),
                   np.zeros(rows), np.zeros(rows, dtype=bool))


def _start(budget_w, state: _BalancerState, host_power_w,
           opts: BalancerOptions) -> _BalancerState:
    """Epoch 0: the uniform budget split and the per-host cut floor."""
    reference = np.asarray(host_power_w, dtype=float)
    budget = np.asarray(budget_w, dtype=float)
    uniform = np.clip(budget / reference.shape[-1],
                      opts.min_limit_w, opts.max_limit_w)
    limits = np.broadcast_to(uniform[..., None], reference.shape).copy()
    return replace(
        state,
        limits_w=limits,
        # Budget that clamping released (or consumed) goes to the pool so
        # the invariant sum(limits) + pool == budget holds from epoch 0.
        pool_w=budget - np.sum(limits, axis=-1),
        # The first epoch's observed power anchors the per-host cut floor:
        # the balancer will not take more than harvest_fraction of the
        # distance from that draw to the RAPL floor.
        cut_floor_w=np.maximum(
            reference - opts.harvest_fraction * (reference - opts.min_limit_w),
            opts.min_limit_w,
        ),
    )


def _total(values) -> float:
    """Sum of a per-row quantity (a serial loop's scalar passes as is)."""
    return float(values.sum()) if values.ndim else float(values)


def _step(budget_w, state: _BalancerState, sample,
          opts: BalancerOptions) -> _BalancerState:
    """One feedback step of every row; returns the next state.

    ``budget_w`` and the per-run state fields have the row shape, the
    sample's per-host arrays ``(..., hosts)``.
    """
    if not state.started:
        return _start(budget_w, state, sample.host_power_w, opts)
    limits, cut_floor = state.limits_w, state.cut_floor_w
    times = np.asarray(sample.host_time_s, dtype=float)
    target = times.max(axis=-1)
    # A row whose epoch has no positive host time keeps its state.
    degenerate = target <= 0
    stepped = degenerate.size - np.count_nonzero(degenerate)
    held = stepped < degenerate.size
    if held:
        target = np.where(degenerate, 1.0, target)
    slack_frac = 1.0 - times / target[..., None]

    # --- donors: hosts comfortably off the critical path ----------------
    donors = slack_frac > opts.margin
    cut = np.where(donors, opts.gain * slack_frac * (limits - cut_floor), 0.0)
    cut = np.maximum(cut, 0.0)
    new_limits = np.maximum(limits - cut, cut_floor)
    cut = limits - new_limits
    # Entries go negative when the cut floor sits above the current limit
    # (the floor *raised* that host); only positive entries are power
    # actually harvested from donors.
    harvested = np.maximum(cut, 0.0).sum(axis=-1)
    pool = state.pool_w + cut.sum(axis=-1)

    # --- receivers: near-critical hosts with headroom -------------------
    receivers = (slack_frac <= opts.margin) & (
        new_limits < opts.max_limit_w - 1e-9
    )
    grantable = (pool > 0) & receivers.any(axis=-1)
    # The grant loops over rows with a compressed gather and sum per row:
    # NumPy's pairwise sum over the gathered headroom differs in the last
    # ulp from a masked full-row reduction once a row has >= 8 receivers.
    new_rows = new_limits.reshape(-1, limits.shape[-1])
    recv_rows = receivers.reshape(new_rows.shape)
    pool_rows = pool.reshape(-1)
    granted = np.zeros(pool_rows.shape)
    for i in grantable.reshape(-1).nonzero()[0].tolist():
        recv = recv_rows[i]
        headroom = opts.max_limit_w - new_rows[i, recv]
        total = float(headroom.sum())
        grant = min(float(pool_rows[i]), total)
        new_rows[i, recv] += grant * headroom / total
        pool_rows[i] -= grant
        granted[i] = grant
    new_limits = new_rows.reshape(limits.shape)
    pool = pool_rows.reshape(target.shape)
    granted = granted.reshape(target.shape)

    step_w = np.abs(new_limits - limits).max(axis=-1)
    steps = state.steps + 1
    if held:
        new_limits = np.where(degenerate[..., None], limits, new_limits)
        pool = np.where(degenerate, state.pool_w, pool)
        step_w = np.where(degenerate, state.last_step_w, step_w)
        harvested = np.where(degenerate, 0.0, harvested)
        granted = np.where(degenerate, 0.0, granted)
        steps = state.steps + ~degenerate
    if enabled():
        registry = get_registry()
        registry.counter("runtime.balancer.steps").inc(stepped)
        registry.counter("runtime.balancer.harvested_w").inc(_total(harvested))
        registry.counter("runtime.balancer.redistributed_w").inc(
            _total(granted)
        )
    return _BalancerState(
        limits_w=new_limits, cut_floor_w=cut_floor, pool_w=pool,
        last_step_w=step_w, steps=steps,
        harvested_w=state.harvested_w + harvested,
        redistributed_w=state.redistributed_w + granted,
        recorded=state.recorded,
    )


def _converged(state: _BalancerState, opts: BalancerOptions):
    """Limits stopped moving (relative to the settable range width).

    Returns the verdicts and the updated ``recorded`` flags: a row's first
    positive verdict emits one ``converged`` event with its
    steps-to-converge and cumulative power moved (once per loop).
    """
    span = opts.max_limit_w - opts.min_limit_w
    converged = state.last_step_w < opts.tolerance * span
    if not enabled():
        return converged, state.recorded
    fresh = converged & ~state.recorded
    if np.count_nonzero(fresh):
        for row in np.ndindex(fresh.shape):
            if fresh[row]:
                emit(
                    "runtime.balancer", "converged",
                    steps=int(state.steps[row]),
                    harvested_w=float(state.harvested_w[row]),
                    redistributed_w=float(state.redistributed_w[row]),
                    unallocated_w=float(state.pool_w[row]),
                )
    return converged, state.recorded | fresh


def _describe(budget_w, state: _BalancerState):
    """Budget, pool, step size, and shifting totals of one loop."""
    return {
        "job_budget_w": float(budget_w),
        "unallocated_w": float(state.pool_w),
        "last_step_w": finite_or_sentinel(state.last_step_w),
        "steps": float(state.steps),
        "harvested_w": float(state.harvested_w),
        "redistributed_w": float(state.redistributed_w),
    }


class PowerBalancerAgent(Agent):
    """Shift power from slack hosts to critical-path hosts within a job.

    Parameters
    ----------
    job_budget_w:
        Total node-power budget for the job.  The sum of limits the agent
        programs never exceeds this budget; power it cannot place (all
        receivers at TDP) is retained in an internal pool and reported via
        :meth:`describe` as ``unallocated_w`` — the figure a coordinating
        resource manager would harvest.
    options:
        Feedback-loop tuning.
    """

    name = "power_balancer"

    def __init__(self, job_budget_w: float,
                 options: "BalancerOptions | None" = None) -> None:
        ensure_positive(job_budget_w, "job_budget_w")
        self.job_budget_w = float(job_budget_w)
        self.options = options if options is not None else BalancerOptions()
        self._state = _BalancerState.fresh()

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """One feedback step; returns the next epoch's node limits."""
        self._state = _step(self.job_budget_w, self._state, sample,
                            self.options)
        return self._state.limits_w.copy()

    def converged(self) -> bool:
        """Limits stopped moving (see :func:`_converged`)."""
        converged, self._state.recorded = _converged(self._state, self.options)
        return bool(converged)

    def describe(self):
        """Budget, pool, step size, and shifting totals for report
        metadata."""
        return _describe(self.job_budget_w, self._state)

    @classmethod
    def make_batch(cls, agents) -> "_PowerBalancerBatch":
        """Batch a group of fresh balancers sharing one options value."""
        budgets = np.array([a.job_budget_w for a in agents], dtype=float)
        return _PowerBalancerBatch(budgets, batch_options(agents))


class _PowerBalancerBatch(AgentBatch):
    """``G`` balancer loops stepped by the serial agent's kernels."""

    def __init__(self, budgets_w: np.ndarray, options: BalancerOptions) -> None:
        self.options = options
        self._budgets_w = budgets_w
        self._state = _BalancerState.fresh(budgets_w.shape)

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        state = _step(self._budgets_w[rows], self._state.take(rows), sample,
                      self.options)
        self._state.put(rows, state)
        return state.limits_w

    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        converged, self._state.recorded[rows] = _converged(
            self._state.take(rows), self.options
        )
        return converged

    def describe_run(self, row: int):
        return _describe(self._budgets_w[row], self._state.take(row))
