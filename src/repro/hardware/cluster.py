"""Cluster container: a population of nodes with variation applied.

The paper's evaluation uses 918 "medium-frequency" Quartz nodes selected by
the Fig. 6 survey.  :class:`Cluster` owns the node population and the
sampling of variation multipliers, and provides the selection primitives
the characterization pipeline needs (survey arrays, subsetting).

A node is its efficiency multiplier: the population is one flat NumPy
array, and every node-level power quantity comes from the cluster's
vectorised :class:`~repro.hardware.node.NodePowerModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.hardware.cpu import CpuSpec, QUARTZ_CPU
from repro.hardware.node import NodePowerModel
from repro.hardware.variation import VariationModel, QUARTZ_VARIATION

__all__ = ["Cluster"]


@dataclass
class Cluster:
    """A homogeneous-SKU cluster with per-node manufacturing variation.

    Parameters
    ----------
    node_count:
        Number of nodes to instantiate.
    spec:
        Socket specification shared by all nodes.
    variation:
        Distribution the per-node efficiency multipliers are drawn from;
        pass ``None`` for an idealised zero-variation cluster.
    seed:
        Seed for the variation draw (reproducible surveys).
    """

    node_count: int
    spec: CpuSpec = field(default_factory=lambda: QUARTZ_CPU)
    variation: Optional[VariationModel] = field(default_factory=lambda: QUARTZ_VARIATION)
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be positive")
        rng = np.random.default_rng(self.seed)
        if self.variation is None:
            self.efficiencies = np.ones(self.node_count)
        else:
            self.efficiencies = self.variation.sample(self.node_count, rng)
        self.power_model = NodePowerModel(self.spec)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.node_count

    @property
    def total_tdp_w(self) -> float:
        """Sum of node TDPs — the paper's Table III footnote (216 kW at 900 nodes)."""
        return self.node_count * self.power_model.tdp_w

    # ------------------------------------------------------------------
    def survey_frequencies(self, cap_w: float, kappa: float) -> np.ndarray:
        """Achieved frequency of every node under a uniform cap.

        This is the paper's Fig. 6 survey: run the most power-hungry
        configuration (high ``kappa``) under a low cap (70 W/socket ->
        140 W/node) and record per-node achieved frequency.
        """
        caps = np.full(self.node_count, float(cap_w))
        return self.power_model.freq_at_cap(caps, kappa, self.efficiencies)

    def subset(self, node_ids: Sequence[int]) -> "Cluster":
        """A new cluster restricted to ``node_ids`` (efficiencies preserved).

        Used to carve the medium-frequency partition out of the survey
        population, as the paper does before running its experiments.
        """
        ids = np.asarray(node_ids, dtype=int)
        if ids.size == 0:
            raise ValueError("subset must contain at least one node")
        if np.any(ids < 0) or np.any(ids >= self.node_count):
            raise ValueError("subset node ids out of range")
        sub = Cluster(
            node_count=int(ids.size),
            spec=self.spec,
            variation=None,
            seed=self.seed,
        )
        sub.efficiencies = self.efficiencies[ids].copy()
        return sub
