"""The evaluation grid: policy x mix x budget, as in the paper's §V-§VI.

:class:`ExperimentGrid` reproduces the paper's experimental procedure end
to end:

1. instantiate a cluster and run the Fig. 6 variation survey;
2. carve out the medium-frequency partition (the paper's 918 nodes);
3. build the six Table II mixes and schedule them onto the partition;
4. pre-characterize each mix (monitor + balancer runs);
5. derive the three Table III budgets per mix;
6. run every (policy, budget) cell through the resource manager.

The ``scale`` parameter shrinks nodes-per-job (and the survey) for tests
and laptop runs; all derived quantities (budgets, savings) are per-node
normalised, so shapes are scale-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


from repro.characterization.budgets import PowerBudgets, derive_budgets
from repro.characterization.clustering import FrequencySurvey, survey_and_cluster
from repro.characterization.mix_characterization import (
    DEFAULT_HARVEST_FRACTION,
    MixCharacterization,
    characterize_mix,
)
from repro.core.registry import POLICY_NAMES, create_policy
from repro.hardware.cluster import Cluster
from repro.manager.power_manager import ManagedRun, PowerManager
from repro.manager.scheduler import ScheduledMix, Scheduler
from repro.sim.engine import ExecutionModel
from repro.sim.execution import SimulationOptions
from repro.telemetry import emit, enabled, get_registry, span
from repro.workload.mixes import MIX_NAMES, MixBuilder

__all__ = [
    "ExperimentConfig",
    "PreparedMix",
    "CellResult",
    "GridResults",
    "ExperimentGrid",
    "cell_seed",
    "run_grid_cell",
]

#: Budget level names in presentation order.
BUDGET_LEVELS: Tuple[str, ...] = ("min", "ideal", "max")


def cell_seed(run_seed: int, mix_name: str, budget_level: str,
              policy_name: str) -> int:
    """The deterministic noise seed for one grid cell.

    Content-addressed through ``np.random.SeedSequence`` (see
    :mod:`repro.parallel.seeding`): the seed is a pure function of the
    run seed and the cell's identity, never a draw from a parent RNG —
    so noise differs across cells, every rerun is bit-identical, and
    serial and parallel sweeps agree no matter how cells are ordered or
    chunked.  (Python's ``hash()`` is salted per process and would break
    all three properties.)
    """
    from repro.parallel.seeding import child_seed

    return child_seed(run_seed, mix_name, budget_level, policy_name)


def run_grid_cell(
    config: ExperimentConfig,
    model: ExecutionModel,
    prepared: PreparedMix,
    mix_name: str,
    budget_level: str,
    policy_name: str,
) -> "CellResult":
    """Run one (mix, budget, policy) cell from prepared inputs.

    A pure module-level function of picklable arguments — the single
    code path behind both :meth:`ExperimentGrid.run_cell` and the
    process-pool workers, which is what guarantees parallel grids are
    byte-identical to serial ones.
    """
    if budget_level not in BUDGET_LEVELS:
        raise ValueError(f"budget_level must be one of {BUDGET_LEVELS}")
    budget_w = prepared.budgets.by_level()[budget_level]
    policy = create_policy(policy_name)
    manager = PowerManager(model)
    seed = cell_seed(config.run_seed, mix_name, budget_level, policy_name)
    options = SimulationOptions(noise_std=config.noise_std, seed=seed)
    with span("experiments.grid.cell", mix=mix_name,
              budget_level=budget_level, policy=policy_name):
        run = manager.launch(
            prepared.scheduled,
            policy,
            budget_w,
            characterization=prepared.characterization,
            options=options,
        )
    if enabled():
        get_registry().counter("experiments.grid.cells").inc()
        emit(
            "experiments.grid", "cell_complete",
            mix=mix_name, budget_level=budget_level, policy=policy_name,
            mean_power_w=float(run.result.mean_system_power_w),
        )
    return CellResult(
        mix_name=mix_name,
        budget_level=budget_level,
        policy_name=policy_name,
        run=run,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the full evaluation (paper defaults).

    ``survey_nodes`` / ``nodes_per_job`` / ``jobs_per_mix`` / ``iterations``
    default to the paper's 2 000 / 100 / 9 / 100.  Tests pass smaller
    values; every public artefact normalises per node so the shapes match.
    """

    survey_nodes: int = 2000
    nodes_per_job: int = 100
    jobs_per_mix: int = 9
    iterations: int = 100
    survey_cap_w: float = 140.0
    cluster_seed: int = 2021
    schedule_seed: int = 11
    noise_std: float = 0.008
    run_seed: int = 7
    harvest_fraction: float = DEFAULT_HARVEST_FRACTION
    mixes: Tuple[str, ...] = MIX_NAMES
    policies: Tuple[str, ...] = POLICY_NAMES

    def __post_init__(self) -> None:
        needed = self.nodes_per_job * self.jobs_per_mix
        if self.survey_nodes < needed * 2:
            raise ValueError(
                f"survey of {self.survey_nodes} nodes cannot yield a medium "
                f"partition of {needed} nodes (rule of thumb: survey >= 2x)"
            )

    @classmethod
    def small(cls, nodes_per_job: int = 10, iterations: int = 30) -> "ExperimentConfig":
        """A laptop/test-scale configuration with the same structure."""
        # The medium cluster holds ~46 % of the survey population, so a
        # 25x survey comfortably covers the 9-job partition.
        return cls(
            survey_nodes=max(25 * nodes_per_job, 250),
            nodes_per_job=nodes_per_job,
            iterations=iterations,
        )


@dataclass(frozen=True)
class PreparedMix:
    """A mix scheduled, characterized, and budgeted — ready to run."""

    scheduled: ScheduledMix
    characterization: MixCharacterization
    budgets: PowerBudgets

    @property
    def name(self) -> str:
        """Mix name."""
        return self.scheduled.mix.name


@dataclass(frozen=True)
class CellResult:
    """One grid cell: a policy run at one budget level on one mix."""

    mix_name: str
    budget_level: str
    policy_name: str
    run: ManagedRun

    def row(self) -> Dict[str, object]:
        """Flat export row (CSV-friendly)."""
        summary = self.run.result.summary()
        return {
            "mix": self.mix_name,
            "budget_level": self.budget_level,
            "policy": self.policy_name,
            **summary,
            "allocated_w": self.run.allocation.total_allocated_w,
            "unallocated_w": self.run.allocation.unallocated_w,
        }


@dataclass
class GridResults:
    """All grid cells plus the prepared inputs that produced them."""

    config: ExperimentConfig
    survey: FrequencySurvey
    prepared: Dict[str, PreparedMix]
    cells: Dict[Tuple[str, str, str], CellResult] = field(default_factory=dict)

    def cell(self, mix: str, level: str, policy: str) -> CellResult:
        """Look up one cell by (mix, budget level, policy)."""
        try:
            return self.cells[(mix, level, policy)]
        except KeyError:
            raise KeyError(
                f"no cell ({mix!r}, {level!r}, {policy!r}); ran "
                f"{sorted(set(k[0] for k in self.cells))} x "
                f"{sorted(set(k[1] for k in self.cells))} x "
                f"{sorted(set(k[2] for k in self.cells))}"
            ) from None

    def rows(self) -> List[Dict[str, object]]:
        """All cells as flat export rows, in deterministic order."""
        ordered = sorted(self.cells)
        return [self.cells[key].row() for key in ordered]


class ExperimentGrid:
    """Builds the environment and runs the evaluation grid."""

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 model: Optional[ExecutionModel] = None) -> None:
        self.config = config if config is not None else ExperimentConfig()
        self.model = model if model is not None else ExecutionModel()
        self._survey: Optional[FrequencySurvey] = None
        self._partition: Optional[Cluster] = None
        self._prepared: Dict[str, PreparedMix] = {}

    # ------------------------------------------------------------------
    # environment
    # ------------------------------------------------------------------
    @property
    def survey(self) -> FrequencySurvey:
        """The Fig. 6 survey over the full cluster population (cached)."""
        if self._survey is None:
            population = Cluster(
                node_count=self.config.survey_nodes, seed=self.config.cluster_seed
            )
            self._survey = survey_and_cluster(
                population, cap_w=self.config.survey_cap_w, model=self.model
            )
            self._population = population
        return self._survey

    @property
    def partition(self) -> Cluster:
        """The medium-frequency partition used for all experiments."""
        if self._partition is None:
            survey = self.survey
            medium_ids = survey.cluster_node_ids("medium")
            needed = self.config.nodes_per_job * self.config.jobs_per_mix
            if medium_ids.size < needed:
                raise RuntimeError(
                    f"medium cluster has {medium_ids.size} nodes; "
                    f"{needed} required"
                )
            self._partition = self._population.subset(medium_ids)
        return self._partition

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    def prepare_mix(self, mix_name: str) -> PreparedMix:
        """Schedule, characterize, and budget one mix (cached)."""
        if mix_name not in self._prepared:
            builder = MixBuilder(
                nodes_per_job=self.config.nodes_per_job,
                jobs_per_mix=self.config.jobs_per_mix,
                iterations=self.config.iterations,
            )
            mix = builder.build(mix_name)
            scheduler = Scheduler(self.partition, shuffle_seed=self.config.schedule_seed)
            scheduled = scheduler.allocate(mix)
            char = characterize_mix(
                mix,
                scheduled.efficiencies,
                self.model,
                harvest_fraction=self.config.harvest_fraction,
            )
            budgets = derive_budgets(char)
            self._prepared[mix_name] = PreparedMix(
                scheduled=scheduled, characterization=char, budgets=budgets
            )
        return self._prepared[mix_name]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_cell(self, mix_name: str, budget_level: str, policy_name: str) -> CellResult:
        """Run one (mix, budget, policy) cell."""
        prepared = self.prepare_mix(mix_name)
        return run_grid_cell(
            self.config, self.model, prepared, mix_name, budget_level,
            policy_name,
        )

    def run_all(
        self,
        mixes: Optional[Sequence[str]] = None,
        levels: Sequence[str] = BUDGET_LEVELS,
        policies: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ) -> GridResults:
        """Run the full grid (or a sub-grid) and collect results.

        ``workers`` selects the execution mode: 1 (or ``None`` without
        ``$REPRO_WORKERS`` set) runs cells serially in-process; above 1
        the independent cells fan out over a process pool via
        :class:`~repro.parallel.ParallelRunner`.  Per-cell seeds are
        content-addressed (:func:`cell_seed`), so both modes produce
        bit-identical :class:`GridResults`.  The environment (survey,
        partition, characterizations) is always prepared serially in
        this process and shipped to the workers.
        """
        from repro.parallel.runner import resolve_workers

        workers = resolve_workers(workers)
        mixes = list(mixes if mixes is not None else self.config.mixes)
        levels = list(levels)
        policies = list(policies if policies is not None else self.config.policies)
        results = GridResults(
            config=self.config,
            survey=self.survey,
            prepared={name: self.prepare_mix(name) for name in mixes},
        )
        keys = [
            (mix_name, level, policy_name)
            for mix_name in mixes
            for level in levels
            for policy_name in policies
        ]
        with span("experiments.grid.run_all", mixes=len(mixes),
                  levels=len(levels), policies=len(policies),
                  workers=workers):
            if workers == 1:
                for mix_name, level, policy_name in keys:
                    results.cells[(mix_name, level, policy_name)] = self.run_cell(
                        mix_name, level, policy_name
                    )
            else:
                from repro.parallel.runner import ParallelRunner
                from repro.parallel.tasks import grid_cell_task, init_grid_worker

                runner = ParallelRunner(
                    workers,
                    initializer=init_grid_worker,
                    initargs=(self.config, self.model, results.prepared),
                )
                for key, cell in zip(keys, runner.map(grid_cell_task, keys)):
                    results.cells[key] = cell
        if enabled():
            emit(
                "experiments.grid", "grid_complete",
                mixes=len(mixes), levels=len(levels),
                policies=len(policies), cells=len(results.cells),
                workers=workers,
            )
        return results
