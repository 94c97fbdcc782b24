"""Batched scenario evaluation: many cap vectors through one engine pass.

Every headline experiment in the paper is a *sweep* — the Fig. 5 balancer
heat map, the Table III budget ladders, Fig. 8's mix x budget x policy
grid.  Evaluating a sweep one :func:`~repro.sim.execution.simulate_mix`
call at a time pays full per-call overhead per scenario even though the
physics is a pure ufunc chain that broadcasts.  This module adds the
*scenario axis*: an ``(S, hosts)`` cap matrix runs through one pass of the
shared engine body (:func:`repro.sim.execution._execute_scenarios`) as
``(S, iterations, hosts)`` tensors.

Determinism contract
--------------------
``simulate_cap_batch(mix, caps_sw, ...)[s]`` is **bit-identical** to
``simulate_mix(mix, caps_sw[s], ...)`` with the matching per-scenario
seed — not merely close.  Both entry points share one implementation, the
noise stream is drawn per scenario from its own ``default_rng(seed)``, and
the reductions are arranged so each scenario slice sees the exact
floating-point operation order of a serial run.  The property is pinned by
``tests/property/test_batch_properties.py``.

Batch vs pool
-------------
Batching removes *per-call* overhead inside one process; the
:mod:`repro.parallel` pool removes *wall-clock* by using more processes.
They compose: ladder helpers chunk their rungs across pool workers and
each worker evaluates its chunk as one batch.  Batched runs also share
the content-addressed result cache with serial runs — per-scenario cache
keys are identical, so a batch can be partially served from cache and a
later serial call hits entries a batch stored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.engine import ExecutionModel
from repro.sim.execution import (
    DEFAULT_OPTIONS,
    SimulationOptions,
    _execute_scenarios,
    _ScenarioTensors,
)
from repro.sim.results import MixRunResult
from repro.telemetry import emit, enabled, get_registry, span
from repro.workload.job import HostLayout, Job, WorkloadMix

__all__ = [
    "LayoutBatch",
    "stack_cache_info",
    "stack_layouts",
    "stack_job_layouts",
    "simulate_cap_batch",
    "simulate_layout_batch",
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
    """:func:`stack_layouts`, memoised on layout *identity*.

    The site loops' batch executor stacks the same shared read-only
    layout objects (one per job shape, primed by the batch planner)
    group after group, so the stacked batch can be reused outright
    instead of re-gathering ``S × hosts`` physics arrays per step.  Layouts are immutable by contract (:meth:`WorkloadMix.layout`
    marks the arrays read-only), which is what makes the stacked result
    shareable; callers that mutate layouts must use :func:`stack_layouts`
    directly.

    The fused facility engine drives group sizes that vary round to
    round (clusters drop out as their streams drain), so the all-same
    path additionally memoises the *one-row* stack under
    ``(id(first), 1)``: a new scenario count pays only the ``np.repeat``
    fan-out, never a re-gather of the physics arrays.
    """
    global _STACK_CACHE_HITS, _STACK_CACHE_MISSES
    first = layouts[0]
    scenarios = len(layouts)
    if all(layout is first for layout in layouts):
        # All rows share one layout object (the planner's primed-layout
        # case): the stacked batch is S copies of a single row, built by
        # repeating a one-row stack instead of re-gathering S rows.
        key = (id(first), scenarios)
        entry = _STACK_CACHE.get(key)
        if entry is not None and entry[0][0] is first:
            _STACK_CACHE_HITS += 1
            return entry[1]
        _STACK_CACHE_MISSES += 1
        single_key = (id(first), 1)
        single_entry = _STACK_CACHE.get(single_key)
        if single_entry is not None and single_entry[0][0] is first:
            single = single_entry[1]
        else:
            single = stack_layouts([first])
            if len(_STACK_CACHE) >= _STACK_CACHE_LIMIT:
                _STACK_CACHE.clear()
            _STACK_CACHE[single_key] = ((first,), single)
        if scenarios == 1:
            return single
        batch = LayoutBatch(
            job_index=single.job_index,
            job_boundaries=single.job_boundaries,
            critical=np.repeat(single.critical, scenarios, axis=0),
            kappa=np.repeat(single.kappa, scenarios, axis=0),
            poll_kappa=np.repeat(single.poll_kappa, scenarios, axis=0),
            traffic_gb=np.repeat(single.traffic_gb, scenarios, axis=0),
            gflop=np.repeat(single.gflop, scenarios, axis=0),
            compute_ceiling_index=np.repeat(
                single.compute_ceiling_index, scenarios, axis=0
            ),
            ceiling_names=single.ceiling_names,
        )
        held = (first,)
    else:
        key = tuple(id(layout) for layout in layouts)
        entry = _STACK_CACHE.get(key)
        if entry is not None:
            held, batch = entry
            if all(a is b for a, b in zip(held, layouts)):
                _STACK_CACHE_HITS += 1
                return batch
        _STACK_CACHE_MISSES += 1
        batch = stack_layouts(layouts)
        held = tuple(layouts)
    if len(_STACK_CACHE) >= _STACK_CACHE_LIMIT:
        _STACK_CACHE.clear()
    _STACK_CACHE[key] = (held, batch)
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


def _per_scenario(value, scenarios: int, name: str, kind) -> list:
    """Broadcast a scalar-or-sequence argument to one value per scenario."""
    if isinstance(value, (str, float, int)) and not isinstance(value, bool):
        return [kind(value)] * scenarios
    values = [kind(v) for v in value]
    if len(values) != scenarios:
        raise ValueError(
            f"{name} must be a scalar or length-{scenarios} sequence, "
            f"got length {len(values)}"
        )
    return values


def _simulate_tensors(
    entry: str,
    event: str,
    layouts: Sequence[HostLayout],
    caps: np.ndarray,
    eff_rows: Sequence[np.ndarray],
    model: ExecutionModel,
    options: SimulationOptions,
    seeds: Sequence[int],
    describe: Callable[[int], Tuple[WorkloadMix, str, float]],
    run: Callable[[List[int], List[int]], _ScenarioTensors],
    n_iter: int,
    **labels,
) -> _ScenarioTensors:
    """The row bookkeeping every batch entry point shares.

    Row ``s`` runs layout ``layouts[s]`` under ``caps[s]`` on hosts with
    efficiencies ``eff_rows[s]`` and noise seed ``seeds[s]``;
    ``describe(s)`` is its ``(mix, policy name, budget)``, asked for only
    when a :func:`~repro.parallel.cache.active_cache` is installed.
    Rows are served from that cache under the *serial* cache key;
    ``run(misses, miss_seeds)`` runs the remaining rows in one engine
    call (output row ``i`` is scenario ``misses[i]``), and the fresh rows
    are stored.  Returns the engine tensors of all rows in row order,
    and records the ``sim.simulate_<entry>_batch`` span and ``event``.
    """
    scenarios = len(seeds)
    hosts = layouts[0].host_count

    from repro.parallel.cache import active_cache

    with span(f"sim.simulate_{entry}_batch", **labels, hosts=hosts,
              scenarios=scenarios) as trace_sp:
        cache = active_cache()
        hits: Dict[int, MixRunResult] = {}
        keys: List[Optional[str]] = [None] * scenarios
        misses = list(range(scenarios))
        if cache is not None:
            from repro.io.serialize import result_from_dict

            misses = []
            for s in range(scenarios):
                mix, policy_name, budget_w = describe(s)
                keys[s] = cache.key(
                    "simulate", mix, caps[s], eff_rows[s], model,
                    dataclasses.replace(options, seed=seeds[s]),
                    policy_name, budget_w,
                )
                payload = cache.get(keys[s])
                if payload is not None:
                    hits[s] = result_from_dict(payload)
                else:
                    misses.append(s)
        if trace_sp is not None:
            trace_sp.set_attribute("cache_hits", len(hits))

        out = run(misses, [seeds[s] for s in misses]) if misses else None
        if cache is not None:
            from repro.io.serialize import result_to_dict

            results = [hits.get(s) for s in range(scenarios)]
            for row, s in enumerate(misses):
                results[s] = out.result(row, *describe(s))
                cache.put(keys[s], result_to_dict(results[s]))
            if hits:
                out = _ScenarioTensors(
                    job_iter_times=np.stack(
                        [r.iteration_times_s for r in results]),
                    iteration_energy=np.stack(
                        [r.iteration_energy_j for r in results]),
                    host_energy=np.stack([r.host_energy_j for r in results]),
                    host_mean_power=np.stack(
                        [r.host_mean_power_w for r in results]),
                    total_gflop=np.array([r.total_gflop for r in results]),
                )

        if enabled():
            registry = get_registry()
            registry.counter("sim.execution.batch_runs").inc()
            if misses:
                registry.counter("sim.execution.runs").inc(len(misses))
            if hits:
                registry.counter("sim.execution.cache_hits").inc(len(hits))
            emit(
                "sim.execution", event, **labels, hosts=hosts,
                scenarios=scenarios, cache_hits=len(hits),
                iterations=n_iter,
            )
    return out


def _simulate_rows(
    entry: str,
    event: str,
    mixes: Sequence[WorkloadMix],
    layouts: Sequence[HostLayout],
    caps: np.ndarray,
    eff_rows: Sequence[np.ndarray],
    model: ExecutionModel,
    options: SimulationOptions,
    seeds: Optional[Sequence[int]],
    policy_names: Union[str, Sequence[str]],
    budgets_w: Union[float, Sequence[float]],
    run: Callable[[List[int], List[int]], _ScenarioTensors],
    **labels,
) -> List[MixRunResult]:
    """:func:`_simulate_tensors` with normalised seeds and metadata, as
    one :class:`MixRunResult` per row (the public entry points' form)."""
    scenarios = len(mixes)
    if seeds is None:
        seed_list = [int(options.seed)] * scenarios
    else:
        seed_list = [int(s) for s in seeds]
        if len(seed_list) != scenarios:
            raise ValueError(
                f"seeds must have length {scenarios}, got {len(seed_list)}"
            )
    names = _per_scenario(policy_names, scenarios, "policy_names", str)
    budgets = _per_scenario(budgets_w, scenarios, "budgets_w", float)

    def describe(s: int) -> Tuple[WorkloadMix, str, float]:
        return mixes[s], names[s], budgets[s]

    out = _simulate_tensors(
        entry, event, layouts, caps, eff_rows, model, options, seed_list,
        describe, run, mixes[0].common_iterations(), **labels,
    )
    return [out.result(s, *describe(s)) for s in range(scenarios)]


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

    When a :func:`~repro.parallel.cache.active_cache` is installed, each
    scenario is looked up under the *serial* cache key; only the missing
    rows go through the engine, and their results are stored for later
    serial or batched runs to hit.
    """
    if options is None:
        options = DEFAULT_OPTIONS
    model = model if model is not None else ExecutionModel()
    layout = mix.layout()
    caps = np.asarray(caps_sw, dtype=float)
    eff = np.asarray(efficiencies, dtype=float)
    if caps.ndim != 2 or caps.shape[1] != layout.host_count:
        raise ValueError(
            f"caps_sw must have shape (S, {layout.host_count}), got {caps.shape}"
        )
    if eff.shape != (layout.host_count,):
        raise ValueError(
            f"efficiencies must have shape ({layout.host_count},), got {eff.shape}"
        )
    scenarios = caps.shape[0]
    n_iter = mix.common_iterations()

    def run(misses, miss_seeds):
        return _execute_scenarios(
            layout, caps[misses], eff, model, n_iter,
            options.noise_std, options.barrier_overhead_s, miss_seeds,
            fault_schedule=options.fault_schedule,
        )

    return _simulate_rows(
        "cap", "mix_batch_simulated", [mix] * scenarios,
        [layout] * scenarios, caps, [eff] * scenarios, model, options,
        seeds, policy_names, budgets_w, run, mix=mix.name,
    )


def simulate_layout_batch(
    mixes: Sequence[WorkloadMix],
    caps_sw: np.ndarray,
    efficiencies_sw: np.ndarray,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
    seeds: Optional[Sequence[int]] = None,
    policy_names: Union[str, Sequence[str]] = "unmanaged",
    budgets_w: Union[float, Sequence[float]] = 0.0,
) -> List[MixRunResult]:
    """Simulate ``S`` *independent mixes* on ``S`` host rows in one pass.

    Where :func:`simulate_cap_batch` sweeps cap vectors over one mix on
    one host allocation, this entry point batches whole co-resident
    *runs*: scenario ``s`` is mix ``mixes[s]`` on its own hosts with its
    own efficiencies row — the shape of the site loops' batch executor,
    where admitted batches occupy disjoint node subsets (or different
    clusters) at once.  All mixes must share one job block structure
    (same per-job node counts) and one iteration count, the precondition
    of :func:`stack_layouts`; callers group heterogeneous batches by that
    structure signature first.

    Parameters
    ----------
    mixes:
        One workload mix per scenario, length ``S``.
    caps_sw / efficiencies_sw:
        ``(S, hosts)`` matrices; row ``s`` is scenario ``s``'s per-host
        caps and host efficiencies.
    seeds / policy_names / budgets_w:
        As in :func:`simulate_cap_batch`.

    Returns
    -------
    list of MixRunResult
        Element ``s`` is **bit-identical** to
        ``simulate_mix(mixes[s], caps_sw[s], efficiencies_sw[s], ...)``
        with the matching seed: the engine body is a pure elementwise
        ufunc chain over the host axis with per-scenario contiguous
        reductions, so stacking independent rows cannot change any
        element.

    Per-scenario cache keys are the *serial* keys, so a layout batch
    interoperates with serial runs through any installed
    :func:`~repro.parallel.cache.active_cache` exactly as cap batches do.
    """
    if not mixes:
        raise ValueError("simulate_layout_batch needs at least one mix")
    if options is None:
        options = DEFAULT_OPTIONS
    model = model if model is not None else ExecutionModel()
    layouts = [mix.layout() for mix in mixes]
    hosts = layouts[0].host_count
    scenarios = len(mixes)
    caps = np.asarray(caps_sw, dtype=float)
    eff = np.asarray(efficiencies_sw, dtype=float)
    if caps.shape != (scenarios, hosts):
        raise ValueError(
            f"caps_sw must have shape ({scenarios}, {hosts}), got {caps.shape}"
        )
    if eff.shape != (scenarios, hosts):
        raise ValueError(
            f"efficiencies_sw must have shape ({scenarios}, {hosts}), "
            f"got {eff.shape}"
        )
    n_iter = mixes[0].common_iterations()
    for mix in mixes[1:]:
        if mix.common_iterations() != n_iter:
            raise ValueError(
                "all mixes in a layout batch must share one iteration count"
            )

    return _simulate_rows(
        "layout", "layout_batch_simulated", mixes, layouts, caps, eff,
        model, options, seeds, policy_names, budgets_w,
        _layout_run(layouts, n_iter, caps, eff, model, options),
    )


def _layout_run(layouts: Sequence[HostLayout], n_iter: int, caps: np.ndarray,
                eff: np.ndarray, model: ExecutionModel,
                options: SimulationOptions):
    """The engine call of a layout batch: ``run(misses, miss_seeds)``."""

    def run(misses, miss_seeds):
        if len(misses) == 1:
            # One row needs no stacked layout: it is the serial engine
            # call, and stacking it would only fill the stack memo.
            layout, rows = layouts[misses[0]], eff[misses[0]]
        else:
            layout = _stack_layouts_cached([layouts[s] for s in misses])
            rows = eff[misses]
        return _execute_scenarios(
            layout, caps[misses], rows, model, n_iter,
            options.noise_std, options.barrier_overhead_s, miss_seeds,
            fault_schedule=options.fault_schedule,
        )

    return run


def simulate_layout_rows(
    layouts: Sequence[HostLayout],
    n_iter: int,
    caps_sw: np.ndarray,
    efficiencies_sw: np.ndarray,
    model: ExecutionModel,
    options: SimulationOptions,
    seeds: Sequence[int],
    describe: Callable[[int], Tuple[WorkloadMix, str, float]],
) -> _ScenarioTensors:
    """:func:`simulate_layout_batch` for the site loops' batch executor.

    Rows arrive as the planner's shared layouts (one job block structure,
    ``n_iter`` iterations) with their ``(S, hosts)`` caps and
    efficiencies and one seed each, and the result is the engine's
    stacked tensors rather than one :class:`MixRunResult` per row.
    ``describe(s)`` builds row ``s``'s ``(mix, policy name, budget)``; it
    is called only under an active cache, for the serial cache key and
    the stored result.  Cache semantics, span and telemetry are
    :func:`simulate_layout_batch`'s.
    """
    return _simulate_tensors(
        "layout", "layout_batch_simulated", layouts, caps_sw,
        efficiencies_sw, model, options, seeds, describe,
        _layout_run(layouts, n_iter, caps_sw, efficiencies_sw, model,
                    options),
        n_iter,
    )
