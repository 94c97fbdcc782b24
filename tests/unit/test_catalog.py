"""Unit tests for the configuration catalog and its rankings."""

import pytest

from repro.workload.catalog import ConfigCatalog
from repro.workload.kernel import VectorWidth


class TestBuild:
    def test_full_universe_size(self, catalog):
        """9 intensities x 2 vectors x 7 waiting/imbalance columns."""
        assert len(catalog) == 126

    def test_all_configs_unique(self, catalog):
        seen = {
            (c.intensity, c.vector, c.waiting_fraction, c.imbalance)
            for c in catalog
        }
        assert len(seen) == 126

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfigCatalog(configs=())

    def test_find_exact(self, catalog):
        cfg = catalog.find(8.0, VectorWidth.YMM, 0.5, 2)
        assert cfg.intensity == 8.0
        assert cfg.waiting_fraction == 0.5

    def test_find_missing_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.find(3.14)


class TestPowerRanking:
    def test_compute_power_matches_fig4(self, catalog):
        """Balanced ymm compute powers reproduce the Fig. 4 0% column."""
        expected = {0.25: 214, 0.5: 212, 1.0: 209, 2.0: 213, 4.0: 223,
                    8.0: 232, 16.0: 222, 32.0: 216}
        for intensity, watts in expected.items():
            cfg = catalog.find(intensity)
            assert catalog.uncapped_power_w(cfg) == pytest.approx(watts, abs=1.5)

    def test_mean_monitor_below_compute_for_waiting(self, catalog):
        """Waiting jobs average in (cheaper) poll time."""
        balanced = catalog.find(8.0)
        waiting = catalog.find(8.0, VectorWidth.YMM, 0.75, 3)
        assert catalog.mean_monitor_power_w(waiting) < catalog.mean_monitor_power_w(
            balanced
        )

    def test_mean_monitor_equals_compute_for_balanced(self, catalog):
        cfg = catalog.find(4.0)
        assert catalog.mean_monitor_power_w(cfg) == pytest.approx(
            catalog.uncapped_power_w(cfg)
        )

    def test_fig4_insensitivity_to_imbalance(self, catalog):
        """Uncapped mean power varies only a few watts across the waiting
        columns (the paper's Fig. 4 observation)."""
        base = catalog.mean_monitor_power_w(catalog.find(8.0))
        worst = catalog.mean_monitor_power_w(catalog.find(8.0, VectorWidth.YMM, 0.75, 3))
        assert abs(base - worst) < 13.0

    def test_ranked_order(self, catalog):
        ranked = catalog.ranked_by_power()
        powers = [catalog.mean_monitor_power_w(c) for c in ranked]
        assert powers == sorted(powers)

    def test_lowest_highest_disjoint(self, catalog):
        low = set(id(c) for c in catalog.lowest_power(9))
        high = set(id(c) for c in catalog.highest_power(9))
        assert not low & high

    def test_lowest_are_xmm(self, catalog):
        """Narrow vectors draw the least power."""
        for cfg in catalog.lowest_power(9):
            assert cfg.vector is VectorWidth.XMM

    def test_highest_contains_peak_config(self, catalog):
        labels = [c.label() for c in catalog.highest_power(9)]
        assert "8f/b-ymm-balanced" in labels


class TestSelection:
    def test_random_selection_deterministic(self, catalog):
        a = catalog.random_selection(9, seed=77)
        b = catalog.random_selection(9, seed=77)
        assert [c.label() for c in a] == [c.label() for c in b]

    def test_random_selection_differs_by_seed(self, catalog):
        a = catalog.random_selection(9, seed=1)
        b = catalog.random_selection(9, seed=2)
        assert [c.label() for c in a] != [c.label() for c in b]

    def test_select_predicate(self, catalog):
        balanced = [c for c in catalog.configs if c.imbalance == 1]
        assert len(balanced) == 18  # 9 intensities x 2 vectors
