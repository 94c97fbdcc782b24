"""Unit tests for the Table II workload mixes."""

import pytest

from repro.workload.mixes import MIX_NAMES, MixBuilder
from repro.workload.kernel import VectorWidth


class TestMixNames:
    def test_paper_order(self):
        assert MIX_NAMES == (
            "NeedUsedPower",
            "HighImbalance",
            "WastefulPower",
            "LowPower",
            "HighPower",
            "RandomLarge",
        )

    def test_unknown_mix_raises(self, mix_builder):
        with pytest.raises(KeyError, match="unknown mix"):
            mix_builder.build("MadeUp")


class TestStructure:
    def test_all_mixes_have_900_equivalent_nodes(self, mix_builder):
        """Every mix fills jobs_per_mix x nodes_per_job hosts."""
        total = mix_builder.nodes_per_job * mix_builder.jobs_per_mix
        for name in MIX_NAMES:
            assert mix_builder.build(name).total_nodes == total

    def test_multi_job_mixes_have_nine_jobs(self, mix_builder):
        for name in MIX_NAMES:
            if name == "HighImbalance":
                continue
            assert len(mix_builder.build(name).jobs) == 9

    def test_high_imbalance_single_job(self, mix_builder):
        mix = mix_builder.build("HighImbalance")
        assert len(mix.jobs) == 1
        cfg = mix.jobs[0].config
        assert cfg.imbalance == 3
        assert cfg.waiting_fraction == 0.75

    def test_iterations_propagate(self):
        builder = MixBuilder(nodes_per_job=5, iterations=42)
        mix = builder.build("LowPower")
        assert all(j.iterations == 42 for j in mix.jobs)

    def test_build_all(self, mix_builder):
        for name in MIX_NAMES:
            mix = mix_builder.build(name)
            assert mix.name == name
            assert mix.jobs


class TestSemantics:
    def test_need_used_power_all_balanced(self, mix_builder):
        """Needed == used requires balanced kernels (no waiting ranks)."""
        mix = mix_builder.build("NeedUsedPower")
        assert all(j.config.imbalance == 1 for j in mix.jobs)

    def test_need_used_power_has_one_hungry_job(self, mix_builder):
        mix = mix_builder.build("NeedUsedPower")
        ymm_jobs = [j for j in mix.jobs if j.config.vector is VectorWidth.YMM]
        assert len(ymm_jobs) == 1
        assert ymm_jobs[0].config.intensity == 8.0

    def test_wasteful_power_has_pollers_and_receivers(self, mix_builder):
        mix = mix_builder.build("WastefulPower")
        wasteful = [j for j in mix.jobs if j.config.waiting_fraction >= 0.5]
        balanced = [j for j in mix.jobs if j.config.imbalance == 1]
        assert len(wasteful) >= 5
        assert len(balanced) >= 3

    def test_low_power_mean_below_high_power(self, mix_builder, catalog):
        low = mix_builder.build("LowPower")
        high = mix_builder.build("HighPower")
        low_mean = sum(
            catalog.mean_monitor_power_w(j.config) for j in low.jobs
        ) / len(low.jobs)
        high_mean = sum(
            catalog.mean_monitor_power_w(j.config) for j in high.jobs
        ) / len(high.jobs)
        assert low_mean + 15 < high_mean

    def test_random_large_deterministic(self, mix_builder):
        a = mix_builder.build("RandomLarge")
        b = mix_builder.build("RandomLarge")
        assert a.job_names == b.job_names

    def test_random_seed_changes_selection(self):
        a = MixBuilder(nodes_per_job=5, random_seed=1).build("RandomLarge")
        b = MixBuilder(nodes_per_job=5, random_seed=2).build("RandomLarge")
        assert a.job_names != b.job_names
