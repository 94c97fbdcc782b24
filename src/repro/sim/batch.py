"""Batched scenario evaluation: many cap vectors through one engine pass.

Every headline experiment in the paper is a *sweep* — the Fig. 5 balancer
heat map, the Table III budget ladders, Fig. 8's mix x budget x policy
grid.  Evaluating a sweep one :func:`~repro.sim.execution.simulate_mix`
call at a time pays full per-call overhead per scenario even though the
physics is a pure ufunc chain that broadcasts.  This module adds the
*scenario axis*: an ``(S, hosts)`` cap matrix runs through one pass of the
shared engine body (:func:`repro.sim.execution._execute_scenarios`) as
``(S, iterations, hosts)`` tensors.

One row core
------------
:func:`_run_rows` is the only way rows reach the engine.  A row is
``(layout, caps, efficiencies, seed)``; the core checks shapes, runs all
rows in one engine call, and records the span and the run counter.
Rows that all share one layout object run on that
:class:`~repro.workload.job.HostLayout` with ``(S, hosts)`` caps and
efficiencies; only mixed layouts are stacked (:func:`stack_layouts`,
memoised on layout identity).  The public entry
points are adapters over it: :func:`~repro.sim.execution.simulate_mix`
(one row), :func:`simulate_cap_batch` (``S`` rows on one layout) and
:func:`simulate_layout_rows` (the site loops' grouped passes).

Determinism contract
--------------------
``simulate_cap_batch(mix, caps_sw, ...)[s]`` is **bit-identical** to
``simulate_mix(mix, caps_sw[s], ...)`` with the matching per-scenario
seed — not merely close.  Every entry point shares the one row core, the
noise stream is drawn per scenario from its own ``default_rng(seed)``, and
the reductions are arranged so each scenario slice sees the exact
floating-point operation order of a serial run.  The property is pinned by
``tests/property/test_batch_properties.py``.

Batch vs pool
-------------
Batching removes *per-call* overhead inside one process; the
:mod:`repro.parallel` pool removes *wall-clock* by using more processes.
They compose: the pool fans out independent grid cells and site
replays, and batching happens within each process (a ``launch_batch``
call, an emergency response or a site pass is one engine pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.engine import ExecutionModel
from repro.sim.execution import (
    DEFAULT_OPTIONS,
    SimulationOptions,
    _execute_scenarios,
    _ScenarioTensors,
)
from repro.sim.results import MixRunResult
from repro.telemetry import enabled, get_registry, span
from repro.workload.job import HostLayout, Job, WorkloadMix

__all__ = [
    "LayoutBatch",
    "stack_cache_info",
    "stack_layouts",
    "stack_job_layouts",
    "simulate_cap_batch",
    "simulate_layout_rows",
]


@dataclass(frozen=True)
class LayoutBatch:
    """A stack of per-scenario host layouts sharing one job structure.

    The engine body treats this interchangeably with a
    :class:`~repro.workload.job.HostLayout`: per-host physics arrays carry
    a leading scenario axis ``(S, hosts)`` while the job index structure
    (``job_index``, ``job_boundaries``) stays one-dimensional and common
    to every scenario.  Built via :func:`stack_layouts` from layouts whose
    *workloads* differ (the heat-map case: every cell is a different
    kernel configuration over the same hosts).
    """

    job_index: np.ndarray             # (hosts,)
    job_boundaries: np.ndarray        # (jobs + 1,)
    critical: np.ndarray              # (S, hosts)
    kappa: np.ndarray                 # (S, hosts)
    poll_kappa: np.ndarray            # (S, hosts)
    traffic_gb: np.ndarray            # (S, hosts)
    gflop: np.ndarray                 # (S, hosts)
    compute_ceiling_index: np.ndarray  # (S, hosts)
    ceiling_names: Tuple[str, ...]

    @property
    def host_count(self) -> int:
        """Hosts per scenario."""
        return int(self.job_index.size)

    @property
    def scenario_count(self) -> int:
        """Scenarios stacked in this batch."""
        return int(self.kappa.shape[0])

    def take(self, indices: np.ndarray) -> "LayoutBatch":
        """Gather a subset of scenario rows into a new batch.

        The batched controller runtime uses this to keep only the
        still-active runs' layout rows after convergence freezes cells.
        Rows are fancy-index copies, so downstream row reductions see the
        same contiguous memory a freshly stacked batch would.
        """
        idx = np.asarray(indices, dtype=int)
        return LayoutBatch(
            job_index=self.job_index,
            job_boundaries=self.job_boundaries,
            critical=self.critical[idx],
            kappa=self.kappa[idx],
            poll_kappa=self.poll_kappa[idx],
            traffic_gb=self.traffic_gb[idx],
            gflop=self.gflop[idx],
            compute_ceiling_index=self.compute_ceiling_index[idx],
            ceiling_names=self.ceiling_names,
        )


def stack_layouts(layouts: Sequence[HostLayout]) -> LayoutBatch:
    """Stack per-scenario layouts into one :class:`LayoutBatch`.

    All layouts must share the same host count and job block structure
    (``job_index`` / ``job_boundaries``); their physics arrays may differ
    freely.  Compute-ceiling indices are remapped onto the union of the
    ceiling-name vocabularies, so layouts built from different kernel
    configurations stack without renaming.
    """
    if not layouts:
        raise ValueError("stack_layouts needs at least one layout")
    first = layouts[0]
    names: List[str] = []
    lookup = {}
    remapped = []
    for layout in layouts:
        if not np.array_equal(layout.job_index, first.job_index) or \
                not np.array_equal(layout.job_boundaries, first.job_boundaries):
            raise ValueError(
                "all layouts in a batch must share one job block structure"
            )
        for name in layout.ceiling_names:
            if name not in lookup:
                lookup[name] = len(names)
                names.append(name)
        table = np.array([lookup[n] for n in layout.ceiling_names], dtype=int)
        remapped.append(table[layout.compute_ceiling_index])
    return LayoutBatch(
        job_index=first.job_index,
        job_boundaries=first.job_boundaries,
        critical=np.stack([la.critical for la in layouts]),
        kappa=np.stack([la.kappa for la in layouts]),
        poll_kappa=np.stack([la.poll_kappa for la in layouts]),
        traffic_gb=np.stack([la.traffic_gb for la in layouts]),
        gflop=np.stack([la.gflop for la in layouts]),
        compute_ceiling_index=np.stack(remapped),
        ceiling_names=tuple(names),
    )


#: Identity-keyed memo for :func:`_stack_layouts_cached`.  Values hold
#: strong references to the source layouts so the ``id`` keys stay valid
#: for the lifetime of the entry.
_STACK_CACHE: dict = {}
_STACK_CACHE_LIMIT = 128
_STACK_CACHE_HITS = 0
_STACK_CACHE_MISSES = 0


def stack_cache_info() -> dict:
    """Statistics for the stacked-layout memo (for tests and tuning).

    ``entries`` is bounded by ``limit`` — the memo clears wholesale when
    full, so long-running fused facility campaigns cannot grow it without
    bound.  ``hits``/``misses`` count lookups since process start.
    """
    return {
        "entries": len(_STACK_CACHE),
        "limit": _STACK_CACHE_LIMIT,
        "hits": _STACK_CACHE_HITS,
        "misses": _STACK_CACHE_MISSES,
    }


def _stack_layouts_cached(layouts: Sequence[HostLayout]) -> LayoutBatch:
    """:func:`stack_layouts`, memoised on the tuple of layout *identities*.

    The site loops' batch executor stacks the same shared read-only
    layout objects (one per job shape, primed by the batch planner)
    group after group, so the stacked batch can be reused outright
    instead of re-gathering ``S × hosts`` physics arrays per step.
    Layouts are immutable by contract (:meth:`WorkloadMix.layout` marks
    the arrays read-only), which is what makes the stacked result
    shareable; callers that mutate layouts must use :func:`stack_layouts`
    directly.  Rows that all share one layout object never get here:
    the row core runs them on that layout itself.
    """
    global _STACK_CACHE_HITS, _STACK_CACHE_MISSES
    key = tuple(id(layout) for layout in layouts)
    entry = _STACK_CACHE.get(key)
    if entry is not None and all(a is b for a, b in zip(entry[0], layouts)):
        _STACK_CACHE_HITS += 1
        return entry[1]
    _STACK_CACHE_MISSES += 1
    batch = stack_layouts(layouts)
    if len(_STACK_CACHE) >= _STACK_CACHE_LIMIT:
        _STACK_CACHE.clear()
    _STACK_CACHE[key] = (tuple(layouts), batch)
    return batch


def stack_job_layouts(jobs: Sequence[Job]) -> LayoutBatch:
    """Stack one single-job layout per job into a :class:`LayoutBatch`.

    The batched controller runtime steps many independent single-job
    runs in lockstep; each run's layout is the layout of a one-job mix
    over its own hosts.  All jobs must share a node count (the common
    job block structure :func:`stack_layouts` requires).
    """
    return stack_layouts(
        [WorkloadMix(name=job.name, jobs=(job,)).layout() for job in jobs]
    )


def _run_rows(
    span_name: str,
    layouts: Sequence[HostLayout],
    n_iter: int,
    caps_sw: np.ndarray,
    efficiencies: np.ndarray,
    model: ExecutionModel,
    options: SimulationOptions,
    seeds: Sequence[int],
    **labels,
) -> _ScenarioTensors:
    """The one row path behind every engine entry point.

    Row ``s`` runs layout ``layouts[s]`` for ``n_iter`` iterations under
    caps ``caps_sw[s]`` on hosts with efficiencies ``efficiencies[s]``
    (or one ``(hosts,)`` row shared by all) and noise seed ``seeds[s]``;
    all rows run in one engine call.  Rows that all share one layout
    object run on that layout with ``(S, hosts)`` caps and efficiencies,
    which the bound kernel broadcasts element for element; mixed layouts
    are stacked through the identity memo.  Returns the engine tensors of
    all rows in row order, and records the ``span_name`` span and the
    ``sim.execution.runs`` counter.
    """
    hosts = layouts[0].host_count
    caps = np.asarray(caps_sw, dtype=float)
    if caps.ndim != 2 or caps.shape[1] != hosts:
        raise ValueError(
            f"caps_sw must have shape (S, {hosts}), one caps_w row of "
            f"{hosts} hosts per run; got {caps.shape}"
        )
    scenarios = caps.shape[0]
    if len(seeds) != scenarios:
        raise ValueError(
            f"seeds must have length {scenarios}, got {len(seeds)}"
        )
    eff = np.asarray(efficiencies, dtype=float)
    if eff.shape != (hosts,) and eff.shape != caps.shape:
        raise ValueError(
            f"efficiencies must have shape ({hosts},) or {caps.shape}, "
            f"got {eff.shape}"
        )
    eff = np.broadcast_to(eff, caps.shape)

    with span(span_name, **labels, hosts=hosts, scenarios=scenarios):
        first = layouts[0]
        if all(layout is first for layout in layouts):
            layout = first
        else:
            layout = _stack_layouts_cached(layouts)
        out = _execute_scenarios(
            layout, caps, eff, model, n_iter, options.noise_std,
            options.barrier_overhead_s, seeds,
            fault_schedule=options.fault_schedule,
        )
        if enabled():
            get_registry().counter("sim.execution.runs").inc(scenarios)
    return out


def simulate_cap_batch(
    mix: WorkloadMix,
    caps_sw: np.ndarray,
    efficiencies: np.ndarray,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
    seeds: Optional[Sequence[int]] = None,
    policy_names: Union[str, Sequence[str]] = "unmanaged",
    budgets_w: Union[float, Sequence[float]] = 0.0,
) -> List[MixRunResult]:
    """Simulate ``S`` cap scenarios against one mix in a single pass.

    Parameters
    ----------
    mix / efficiencies:
        As in :func:`~repro.sim.execution.simulate_mix` — one workload on
        one host allocation, shared by every scenario.
    caps_sw:
        Cap matrix of shape ``(S, hosts)``; row ``s`` is scenario ``s``'s
        per-host node caps.
    options:
        Noise/barrier settings shared by all scenarios (``None`` means
        :data:`~repro.sim.execution.DEFAULT_OPTIONS`).
    seeds:
        Per-scenario noise seeds, length ``S``.  ``None`` replicates
        ``options.seed`` — all scenarios then share one noise stream,
        exactly as ``S`` serial calls with the same options would.
    policy_names / budgets_w:
        Result metadata, scalar (shared) or per-scenario sequences.

    Returns
    -------
    list of MixRunResult
        One result per scenario, in row order; element ``s`` is
        bit-identical to the corresponding serial ``simulate_mix`` call.
    """
    if options is None:
        options = DEFAULT_OPTIONS
    model = model if model is not None else ExecutionModel()
    caps = np.asarray(caps_sw, dtype=float)
    scenarios = len(caps) if caps.ndim else 1
    seed_list = [int(options.seed)] * scenarios if seeds is None \
        else [int(s) for s in seeds]
    metadata = []
    for name, value, kind in (("policy_names", policy_names, str),
                              ("budgets_w", budgets_w, float)):
        if isinstance(value, (str, float, int)) and not isinstance(value, bool):
            metadata.append([kind(value)] * scenarios)
            continue
        values = [kind(v) for v in value]
        if len(values) != scenarios:
            raise ValueError(
                f"{name} must be a scalar or length-{scenarios} sequence, "
                f"got length {len(values)}"
            )
        metadata.append(values)
    names, budgets = metadata
    out = _run_rows(
        "sim.simulate_cap_batch", [mix.layout()] * scenarios,
        mix.common_iterations(), caps, efficiencies, model, options,
        seed_list, mix=mix.name,
    )
    return [out.result(s, mix, names[s], budgets[s])
            for s in range(scenarios)]


def simulate_layout_rows(
    layouts: Sequence[HostLayout],
    n_iter: int,
    caps_sw: np.ndarray,
    efficiencies_sw: np.ndarray,
    model: ExecutionModel,
    options: SimulationOptions,
    seeds: Sequence[int],
) -> _ScenarioTensors:
    """Simulate ``S`` independent runs on ``S`` host rows in one pass.

    The site loops' batch executor call: row ``s`` is the run of
    ``layouts[s]`` (the planner's shared layouts, one job block structure
    and ``n_iter`` iterations across all rows — callers group rows by
    that signature first) on its own hosts, with caps
    ``caps_sw[s]``, efficiencies ``efficiencies_sw[s]`` and noise seed
    ``seeds[s]``.

    Returns the engine's stacked tensors rather than one
    :class:`MixRunResult` per row; row ``s`` is **bit-identical** to
    ``simulate_mix(mix, caps_sw[s], efficiencies_sw[s], ...)`` with the
    matching seed, because the engine body is a pure elementwise ufunc
    chain over the host axis with per-scenario contiguous reductions.
    """
    return _run_rows(
        "sim.simulate_layout_batch", layouts, n_iter, caps_sw,
        efficiencies_sw, model, options, seeds,
    )
