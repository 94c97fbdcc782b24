"""The six workload mixes of the paper's Table II.

Each mix targets a policy's best (or worst) case:

``NeedUsedPower``
    Balanced jobs spanning a range of power levels where all consumed power
    is needed for performance — the best case for ``MinimizeWaste`` and the
    case where performance awareness buys nothing extra.
``HighImbalance``
    A single heavily imbalanced job across every node — the best case for
    ``JobAdaptive`` (intra-job shifting is all that is possible).
``WastefulPower``
    Jobs whose unconstrained power draw far exceeds the power they need
    when balanced for performance (lots of barrier polling) plus hungry
    balanced jobs to receive the freed budget — the best case for
    ``MixedAdaptive``.
``LowPower`` / ``HighPower``
    The nine lowest- / highest-power configurations, 100 nodes per job.
``RandomLarge``
    Nine configurations from a seeded random shuffle, 100 nodes per job.

The paper's Table II lists the exact kernel settings per mix; the published
text of that table is not machine-readable, so mixes are constructed
programmatically from the paper's stated selection rules over the
characterization catalog.  The resulting mixes match the paper's structure
(9 jobs x 100 nodes, except HighImbalance's single 900-node job) and
reproduce the qualitative power spreads each mix was designed to exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.workload.catalog import ConfigCatalog, build_catalog
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig, VectorWidth

__all__ = ["MIX_NAMES", "MixBuilder"]

#: Mix names in the paper's presentation order (Table II / Figs. 7-8 columns).
MIX_NAMES: Tuple[str, ...] = (
    "NeedUsedPower",
    "HighImbalance",
    "WastefulPower",
    "LowPower",
    "HighPower",
    "RandomLarge",
)


@dataclass
class MixBuilder:
    """Builds the Table II mixes from a configuration catalog.

    Parameters
    ----------
    catalog:
        The configuration universe (defaults to the full Fig. 4/5 grid).
    nodes_per_job:
        Nodes allocated to each job (paper: 100).
    jobs_per_mix:
        Jobs per mix (paper: 9, filling the 900-node medium partition).
    iterations:
        Iterations per job (paper: 100).
    random_seed:
        Seed for the RandomLarge shuffle.
    """

    catalog: ConfigCatalog = field(default_factory=build_catalog)
    nodes_per_job: int = 100
    jobs_per_mix: int = 9
    iterations: int = 100
    random_seed: int = 77

    # ------------------------------------------------------------------
    def build(self, name: str) -> WorkloadMix:
        """Build one mix by name (see :data:`MIX_NAMES`)."""
        builders = {
            "NeedUsedPower": self.need_used_power,
            "HighImbalance": self.high_imbalance,
            "WastefulPower": self.wasteful_power,
            "LowPower": self.low_power,
            "HighPower": self.high_power,
            "RandomLarge": self.random_large,
        }
        try:
            return builders[name]()
        except KeyError:
            raise KeyError(f"unknown mix {name!r}; expected one of {MIX_NAMES}") from None

    # ------------------------------------------------------------------
    def _jobs_from_configs(self, prefix: str, configs: Sequence[KernelConfig]) -> WorkloadMix:
        jobs = tuple(
            Job(
                name=f"{prefix}-{i:02d}-{cfg.label()}",
                config=cfg,
                node_count=self.nodes_per_job,
                iterations=self.iterations,
            )
            for i, cfg in enumerate(configs)
        )
        return WorkloadMix(name=prefix, jobs=jobs)

    def need_used_power(self) -> WorkloadMix:
        """Balanced jobs, a range of power levels, needed == used power.

        Eight balanced low/medium-power jobs (xmm across the intensity
        range) plus one high-compute-intensity power-hungry job (ymm at
        the roofline ridge, where Fig. 4 peaks).
        """
        low = [
            self.catalog.find(i, VectorWidth.XMM)
            for i in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 32.0)
        ]
        hungry = [self.catalog.find(8.0, VectorWidth.YMM)]
        return self._jobs_from_configs("NeedUsedPower", low + hungry)

    def high_imbalance(self) -> WorkloadMix:
        """A single, heavily imbalanced job across all nodes."""
        cfg = self.catalog.find(16.0, VectorWidth.YMM, waiting_fraction=0.75, imbalance=3)
        total = self.nodes_per_job * self.jobs_per_mix
        job = Job(
            name=f"HighImbalance-00-{cfg.label()}",
            config=cfg,
            node_count=total,
            iterations=self.iterations,
        )
        return WorkloadMix(name="HighImbalance", jobs=(job,))

    def wasteful_power(self) -> WorkloadMix:
        """Wasteful pollers plus hungry balanced receivers.

        Six jobs with heavy barrier polling (their unconstrained draw far
        exceeds their performance-balanced need) and three balanced
        power-hungry jobs that can absorb the freed budget.
        """
        wasteful = [
            self.catalog.find(4.0, VectorWidth.YMM, 0.50, 2),
            self.catalog.find(8.0, VectorWidth.YMM, 0.50, 3),
            self.catalog.find(16.0, VectorWidth.YMM, 0.75, 2),
            self.catalog.find(8.0, VectorWidth.YMM, 0.75, 3),
            self.catalog.find(32.0, VectorWidth.XMM, 0.75, 2),
            self.catalog.find(16.0, VectorWidth.XMM, 0.50, 2),
        ]
        hungry = [
            self.catalog.find(4.0, VectorWidth.YMM),
            self.catalog.find(8.0, VectorWidth.YMM),
            self.catalog.find(16.0, VectorWidth.YMM),
        ]
        return self._jobs_from_configs("WastefulPower", wasteful + hungry)

    def low_power(self) -> WorkloadMix:
        """The nine lowest-power configurations."""
        return self._jobs_from_configs(
            "LowPower", self.catalog.lowest_power(self.jobs_per_mix)
        )

    def high_power(self) -> WorkloadMix:
        """The nine highest-power configurations."""
        return self._jobs_from_configs(
            "HighPower", self.catalog.highest_power(self.jobs_per_mix)
        )

    def random_large(self) -> WorkloadMix:
        """Nine configurations from a seeded random shuffle."""
        return self._jobs_from_configs(
            "RandomLarge",
            self.catalog.random_selection(self.jobs_per_mix, self.random_seed),
        )
