"""Manufacturing variation model for node power efficiency.

The paper (§V-A2, Fig. 6) surveys 2 000 Quartz nodes under a 70 W per-socket
cap with a power-hungry workload, k-means-clusters the achieved frequencies
into three groups (low n=522, medium n=918, high n=560 at roughly 1.6 /
1.75 / 1.9 GHz), and uses the medium cluster for all experiments so results
reflect central-tendency hardware.

Variation is modelled as a per-node *efficiency multiplier* ``eff`` applied
to the frequency-dependent term of the socket power polynomial: a node with
``eff > 1`` burns more power at the same frequency, so under a fixed cap it
achieves a lower frequency.  Multipliers are drawn from a three-component
Gaussian mixture whose weights reproduce the paper's cluster sizes in
expectation; within-component spread produces the whisker widths of Fig. 6.

The same multiplier is used for both sockets of a node — the paper selects
*nodes*, and per-socket differences would be invisible at that granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.units import ensure_positive

__all__ = ["VariationComponent", "VariationModel", "QUARTZ_VARIATION"]


@dataclass(frozen=True)
class VariationComponent:
    """One bin of the part-quality distribution.

    ``mean`` is the efficiency multiplier's centre (1.0 = nominal part,
    > 1 = power-inefficient part that clocks lower under a cap).
    """

    label: str
    weight: float
    mean: float
    std: float

    def __post_init__(self) -> None:
        ensure_positive(self.weight, f"{self.label} weight")
        ensure_positive(self.mean, f"{self.label} mean")
        ensure_positive(self.std, f"{self.label} std")


@dataclass(frozen=True)
class VariationModel:
    """Gaussian-mixture generator of per-node efficiency multipliers."""

    components: Tuple[VariationComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("variation model needs at least one component")
        total = sum(c.weight for c in self.components)
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"component weights must sum to 1, got {total}")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` efficiency multipliers (>= 0.8 enforced).

        Component membership is multinomial; the hard floor guards against
        pathological tail draws that would imply a physically implausible
        part (20 % better than nominal).
        """
        if count < 1:
            raise ValueError("count must be positive")
        weights = np.array([c.weight for c in self.components])
        means = np.array([c.mean for c in self.components])
        stds = np.array([c.std for c in self.components])
        which = rng.choice(len(self.components), size=count, p=weights)
        draws = rng.normal(means[which], stds[which])
        return np.maximum(draws, 0.8)


#: Calibrated so a 2 000-node survey (seed 2021) k-means-partitions into
#: clusters of 529 / 915 / 556 nodes — the paper's Fig. 6 reports
#: 522 / 918 / 560.  "high" frequency nodes are the power-*efficient*
#: parts (low multiplier).
QUARTZ_VARIATION = VariationModel(
    components=(
        VariationComponent(label="high", weight=0.270, mean=0.900, std=0.018),
        VariationComponent(label="medium", weight=0.470, mean=1.000, std=0.022),
        VariationComponent(label="low", weight=0.260, mean=1.105, std=0.018),
    )
)
