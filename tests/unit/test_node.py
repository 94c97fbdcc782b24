"""Unit tests for the node-level power map."""

import numpy as np
import pytest

from repro.hardware.node import NodePowerModel


class TestNodePowerModel:
    def test_clamp_cap(self, node_model):
        caps = np.array([100.0, 200.0, 300.0])
        out = node_model.clamp_cap(caps)
        np.testing.assert_allclose(out, [136.0, 200.0, 240.0])

    def test_freq_at_cap_splits_sockets(self, node_model, socket_model):
        f_node = node_model.freq_at_cap(140.0, 1.0)
        f_socket = socket_model.freq_at_power(70.0, 1.0)
        assert f_node == pytest.approx(f_socket)

    def test_power_at_freq_doubles_socket(self, node_model, socket_model):
        p_node = node_model.power_at_freq(2.0, 0.95)
        assert p_node == pytest.approx(2 * socket_model.power_at(2.0, 0.95))

    def test_consumed_power_never_exceeds_generous_cap(self, node_model):
        """Under a generous cap, consumption is activity-limited."""
        p = node_model.consumed_power(240.0, kappa=0.9)
        assert p < 240.0

    def test_consumed_power_tracks_binding_cap(self, node_model):
        """A binding cap is consumed (nearly) fully."""
        p = node_model.consumed_power(160.0, kappa=1.0)
        assert p == pytest.approx(160.0, rel=1e-6)

    def test_uncapped_power_matches_fig4_peak(self, node_model):
        """kappa=1 uncapped draw is the 232 W Fig. 4 peak cell."""
        assert node_model.uncapped_power(1.0) == pytest.approx(232.0, abs=1.0)

    def test_uncapped_power_matches_fig4_row(self, node_model):
        """kappa from the intensity-1 calibration lands on Fig. 4's 209 W."""
        assert node_model.uncapped_power(0.892) == pytest.approx(209.0, abs=1.0)

    def test_vectorised_over_hosts(self, node_model):
        caps = np.linspace(140, 240, 100)
        kappas = np.linspace(0.85, 1.0, 100)
        effs = np.linspace(0.9, 1.1, 100)
        p = node_model.consumed_power(caps, kappas, effs)
        assert p.shape == (100,)
        assert np.all(p > 0)

    def test_rejects_zero_sockets(self):
        with pytest.raises(ValueError):
            NodePowerModel(sockets=0)
