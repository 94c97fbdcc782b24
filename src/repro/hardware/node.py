"""Node-level power model: a dual-socket package under a RAPL node cap.

The paper's policies all reason about *node-level* power: per-node caps,
per-node observed power.  :class:`NodePowerModel` lifts the per-socket
model to that level and evaluates frequency/power maps for arrays of
nodes at once, which is how 900-node mixes stay fast in pure NumPy.
Nodes themselves are not objects: a cluster is a flat array of variation
multipliers (:class:`~repro.hardware.cluster.Cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.cpu import CpuSpec, SocketPowerModel, QUARTZ_CPU

__all__ = ["NodePowerModel"]


@dataclass(frozen=True)
class NodePowerModel:
    """Vectorised node-level frequency/power map.

    Wraps :class:`SocketPowerModel` with the socket-count scaling: node
    power is ``sockets x`` socket power, and a node cap splits evenly
    across sockets.
    """

    spec: CpuSpec = field(default_factory=lambda: QUARTZ_CPU)
    sockets: int = 2

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError("sockets must be >= 1")
        object.__setattr__(self, "_socket_model", SocketPowerModel(self.spec))

    @property
    def socket_model(self) -> SocketPowerModel:
        """The underlying per-socket model."""
        return self._socket_model

    @property
    def tdp_w(self) -> float:
        """Node TDP in watts."""
        return self.spec.tdp_w * self.sockets

    @property
    def min_cap_w(self) -> float:
        """Lowest settable node-level cap in watts."""
        return self.spec.min_rapl_w * self.sockets

    def clamp_cap(self, cap_w):
        """Clamp node caps into the settable range ``[min_cap, tdp]``."""
        cap = np.asarray(cap_w, dtype=float)
        return np.minimum(np.maximum(cap, self.min_cap_w), self.tdp_w)

    def freq_at_cap(self, cap_w, kappa, efficiency=1.0):
        """Achieved frequency (GHz) under node caps (vectorised)."""
        per_socket = np.asarray(cap_w, dtype=float) / self.sockets
        return self._socket_model.freq_at_power(per_socket, kappa, efficiency)

    def freq_at_cap_load(self, cap_w, load):
        """:meth:`freq_at_cap` for float caps and a premultiplied
        ``load = kappa * efficiency`` (see
        :meth:`SocketPowerModel.freq_at_load`)."""
        return self._socket_model.freq_at_load(cap_w / self.sockets, load)

    def power_at_freq(self, freq_ghz, kappa, efficiency=1.0):
        """Node power (W) at a frequency and activity (vectorised)."""
        return self.sockets * self._socket_model.power_at(freq_ghz, kappa, efficiency)

    def power_at_freq_load(self, freq_ghz, load):
        """:meth:`power_at_freq` for float frequencies and a premultiplied
        ``load = kappa * efficiency``."""
        return self.sockets * self._socket_model.power_at_load(freq_ghz, load)

    def consumed_power(self, cap_w, kappa, efficiency=1.0):
        """Steady-state node power under a cap.

        The node clocks as high as the cap allows (bounded by turbo) and
        draws the corresponding power; when the cap exceeds what the
        workload can use at turbo, consumption is activity-limited and
        falls below the cap — the effect behind the paper's Fig. 7
        under-utilisation bars.
        """
        f = self.freq_at_cap(cap_w, kappa, efficiency)
        return self.power_at_freq(f, kappa, efficiency)

    def uncapped_power(self, kappa, efficiency=1.0):
        """Node power with RAPL at TDP (the monitor-agent operating point)."""
        return self.consumed_power(self.tdp_w, kappa, efficiency)
