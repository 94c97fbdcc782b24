"""Unit tests for content-addressed child seeds and the noise-word memo."""

import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.parallel import seeding
from repro.parallel.seeding import SEED_BLOCK, BlockSeeds, child_seed, child_seeds
from repro.stream.arrivals import poisson_stream, synthetic_job_factory
from repro.stream.engine import SiteStreamEngine


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, "Mix", "ideal") == child_seed(7, "Mix", "ideal")

    def test_identity_parts_matter(self):
        base = child_seed(7, "Mix", "ideal")
        assert child_seed(7, "Mix", "max") != base
        assert child_seed(8, "Mix", "ideal") != base

    def test_order_matters(self):
        assert child_seed(0, "a", "b") != child_seed(0, "b", "a")

    def test_mixed_int_and_str_identity(self):
        assert child_seed(1, 3, "cap") == child_seed(1, 3, "cap")
        assert child_seed(1, 3, "cap") != child_seed(1, 4, "cap")

    def test_range_fits_uint32(self):
        for seed in (child_seed(0), child_seed(2**31, "x"), child_seed(5, 0)):
            assert 0 <= seed < 2**32
            assert isinstance(seed, int)

    def test_rejects_negative_run_seed(self):
        with pytest.raises(ValueError):
            child_seed(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            child_seed(0, True)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            child_seed(0, 1.5)

    def test_independent_of_sibling_count(self):
        """A cell's seed never depends on which other cells run."""
        alone = child_seeds(3, [("OnlyMix", "ideal", "StaticCaps")])
        among = child_seeds(
            3,
            [
                ("OtherMix", "max", "StaticCaps"),
                ("OnlyMix", "ideal", "StaticCaps"),
            ],
        )
        assert alone[0] == among[1]


class TestChildSeeds:
    def test_one_per_identity(self):
        seeds = child_seeds(0, [("a",), ("b",), ("c",)])
        assert len(seeds) == 3
        assert len(set(seeds)) == 3


class TestNoiseWordMemo:
    def test_memo_stays_within_its_bound(self):
        seeding._forget_noise_words()
        for run_seed in range(20):
            seeds = BlockSeeds(run_seed, "site-batch")
            seeds[0]
            seeds[SEED_BLOCK + 1]
            assert len(seeding._NOISE_TABLE) <= seeding._NOISE_WORDS_LIMIT
            assert len(seeding._NOISE_ROWS) <= seeding._NOISE_WORDS_LIMIT
        # The last block derived is always served from the memo.
        assert seeds[SEED_BLOCK + 1] in seeding._NOISE_ROWS

    def test_rolling_engines_agree_with_and_without_the_memo(self, monkeypatch):
        cluster = Cluster(node_count=12, variation=None, seed=0)

        def run():
            engine = SiteStreamEngine(
                cluster, create_policy("StaticCaps"), 2500.0, run_seed=5,
                per_job_batches=True,
            )
            engine.attach_source(poisson_stream(
                0.5, 60.0, synthetic_job_factory(), seed=2
            ))
            return engine.run()

        first = run()
        assert first.jobs_completed > 0
        assert child_seed(5, "site-batch", 0) in seeding._NOISE_ROWS
        second = run()
        seeding._forget_noise_words()
        third = run()
        # With the memo never filled, every row takes Generator(PCG64(seed)).
        seeding._forget_noise_words()
        monkeypatch.setattr(seeding, "_remember_noise_words", lambda seeds: None)
        unmemoised = run()
        assert not seeding._NOISE_ROWS
        assert first == second == third == unmemoised
