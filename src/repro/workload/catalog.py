"""Configuration catalog spanning the paper's characterization grid.

The paper characterizes the kernel over a grid of intensities and
waiting/imbalance combinations (the rows and columns of Figs. 4 and 5) in
both 128-bit and 256-bit vector variants, then composes its Table II mixes
from that universe.  :func:`build_catalog` enumerates the same universe and
:class:`ConfigCatalog` provides the ranking and selection primitives the
mix builder uses (e.g. "the nine lowest-power workload configurations" for
the LowPower mix).

Power rankings use the *nominal* hardware model (variation multiplier 1):
the paper likewise ranks configurations by their characterization-run
averages over similarly-performing nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.node import NodePowerModel
from repro.workload.kernel import (
    INTENSITY_GRID,
    WAITING_IMBALANCE_GRID,
    KernelConfig,
    Precision,
    VectorWidth,
)

__all__ = ["ConfigCatalog", "build_catalog"]


@dataclass(frozen=True)
class ConfigCatalog:
    """An ordered universe of kernel configurations with power rankings."""

    configs: Tuple[KernelConfig, ...]
    power_model: NodePowerModel = field(default_factory=NodePowerModel)

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("catalog must not be empty")

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)

    # ------------------------------------------------------------------
    def uncapped_power_w(self, config: KernelConfig) -> float:
        """Nominal uncapped node power of a configuration's *compute* phase.

        This is the monitor-agent steady-state power on a critical-path
        node.
        """
        return float(self.power_model.uncapped_power(config.kappa))

    def uncapped_poll_power_w(self) -> float:
        """Nominal uncapped node power while busy-polling at the barrier."""
        from repro.workload.kernel import POLL_ACTIVITY_FACTOR

        return float(self.power_model.uncapped_power(POLL_ACTIVITY_FACTOR))

    def mean_monitor_power_w(self, config: KernelConfig) -> float:
        """Job-average uncapped node power — the paper's Fig. 4 cell value.

        Critical-path nodes compute for the whole iteration; waiting nodes
        compute for ``1/imbalance`` of it and busy-poll the rest.  The
        job average weights the two node classes by the waiting fraction.
        This is the quantity the monitor-agent characterization reports
        and the quantity workload rankings (LowPower / HighPower mixes)
        sort by.
        """
        p_compute = self.uncapped_power_w(config)
        if config.imbalance == 1:
            return p_compute
        p_poll = self.uncapped_poll_power_w()
        compute_share = 1.0 / config.imbalance
        p_waiting = compute_share * p_compute + (1.0 - compute_share) * p_poll
        w = config.waiting_fraction
        return (1.0 - w) * p_compute + w * p_waiting

    def ranked_by_power(self, descending: bool = False) -> List[KernelConfig]:
        """All configurations sorted by job-average uncapped power.

        Ties (identical activity factors) break by catalog order, keeping
        the ranking deterministic.
        """
        powers = np.array([self.mean_monitor_power_w(c) for c in self.configs])
        order = np.argsort(powers, kind="stable")
        if descending:
            order = order[::-1]
        return [self.configs[i] for i in order]

    def lowest_power(self, count: int) -> List[KernelConfig]:
        """The ``count`` lowest-power configurations (LowPower mix rule)."""
        return self.ranked_by_power()[:count]

    def highest_power(self, count: int) -> List[KernelConfig]:
        """The ``count`` highest-power configurations (HighPower mix rule)."""
        return self.ranked_by_power(descending=True)[:count]

    def random_selection(self, count: int, seed: int) -> List[KernelConfig]:
        """A seeded random shuffle pick (RandomLarge mix rule)."""
        rng = np.random.default_rng(seed)
        indices = rng.permutation(len(self.configs))[:count]
        return [self.configs[i] for i in sorted(indices)]

    def find(
        self,
        intensity: float,
        vector: VectorWidth = VectorWidth.YMM,
        waiting_fraction: float = 0.0,
        imbalance: int = 1,
    ) -> KernelConfig:
        """Exact lookup of one grid configuration; raises ``KeyError`` if absent."""
        for c in self.configs:
            if (
                c.intensity == intensity
                and c.vector is vector
                and c.waiting_fraction == waiting_fraction
                and c.imbalance == imbalance
            ):
                return c
        raise KeyError(
            f"no config intensity={intensity} vector={vector.value} "
            f"waiting={waiting_fraction} imbalance={imbalance}"
        )


def build_catalog(
    intensities: Sequence[float] = INTENSITY_GRID,
    vectors: Sequence[VectorWidth] = (VectorWidth.YMM, VectorWidth.XMM),
    grid: Sequence[Tuple[float, int]] = WAITING_IMBALANCE_GRID,
    precision: Precision = Precision.DOUBLE,
    power_model: Optional[NodePowerModel] = None,
) -> ConfigCatalog:
    """Enumerate the full characterization universe.

    Default arguments produce 9 intensities x 2 vector widths x 7
    waiting/imbalance columns = 126 configurations — the grid behind the
    paper's Figs. 4/5 in both vector variants.
    """
    configs: List[KernelConfig] = []
    for vector in vectors:
        for waiting, imbalance in grid:
            for intensity in intensities:
                configs.append(
                    KernelConfig(
                        intensity=intensity,
                        vector=vector,
                        precision=precision,
                        waiting_fraction=waiting,
                        imbalance=imbalance,
                    )
                )
    return ConfigCatalog(
        configs=tuple(configs),
        power_model=power_model if power_model is not None else NodePowerModel(),
    )
