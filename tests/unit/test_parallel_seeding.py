"""Unit tests for content-addressed child seeds and the noise-word memo."""

import gc

import numpy as np
import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.parallel import seeding
from repro.parallel.seeding import (
    SEED_BLOCK,
    BlockSeeds,
    child_seed,
    noise_generator,
)
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
        """An item's seed never depends on which other items run."""
        alone = seeding.child_seed_range(3, "cell", start=5, stop=6)
        among = seeding.child_seed_range(3, "cell", start=0, stop=8)
        assert alone[0] == among[5] == child_seed(3, "cell", 5)


def _memoised(seed):
    """Whether noise_generator serves ``seed`` from the memo (no
    SeedSequence), checked against default_rng(seed)'s stream."""
    generator = noise_generator(seed)
    expected = np.random.default_rng(seed).standard_normal(4).tolist()
    assert generator.standard_normal(4).tolist() == expected
    return not isinstance(generator.bit_generator.seed_seq,
                          np.random.SeedSequence)


class TestNoiseWordMemo:
    def test_memo_stays_within_its_bound(self):
        # Two blocks per live BlockSeeds (the current one and the one
        # before), and a dropped BlockSeeds takes its blocks with it.
        gc.collect()
        seeding._NOISE_ROWS.clear()
        older = set(seeding._NOISE_BLOCKS)  # blocks of BlockSeeds still alive

        def blocks():
            return len(set(seeding._NOISE_BLOCKS) - older)

        for run_seed in range(20):
            seeds = BlockSeeds(run_seed, "site-batch")
            for block in range(3):
                seeds[block * SEED_BLOCK + 1]
            assert len(seeding._NOISE_ROWS) == 2 * SEED_BLOCK
            assert blocks() == 2
        assert child_seed(19, "site-batch", SEED_BLOCK) in seeding._NOISE_ROWS
        assert child_seed(19, "site-batch", 0) not in seeding._NOISE_ROWS
        many = [BlockSeeds(run_seed, "site-batch") for run_seed in range(8)]
        for each in many:
            each[0]
        assert len(seeding._NOISE_ROWS) == 10 * SEED_BLOCK
        assert blocks() == 10
        del many, seeds, each
        gc.collect()
        assert not seeding._NOISE_ROWS and blocks() == 0

    def test_interleaved_block_seeds_never_evict_each_other(self):
        # A runs five blocks ahead of B, and 16 more run in lockstep (the
        # facility's clusters): every seed still comes from the memo.
        ahead = BlockSeeds(1, "site-batch")
        behind = BlockSeeds(2, "site-batch")
        lockstep = [BlockSeeds(10 + k, "site-batch") for k in range(16)]
        misses = 0
        for index in range(0, 6 * SEED_BLOCK, 97):
            misses += not _memoised(ahead[index])
            misses += not _memoised(behind[index % SEED_BLOCK])
            for seeds in lockstep:
                misses += not _memoised(seeds[index])
        assert misses == 0

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
            return engine, engine.run()

        engine, first = run()
        assert first.jobs_completed > 0
        assert child_seed(5, "site-batch", 0) in seeding._NOISE_ROWS
        del engine
        second = run()[1]
        seeding._NOISE_ROWS.clear()
        third = run()[1]
        # With the memo bypassed, every row takes default_rng(seed).
        drawn = []

        def default_rng(seed):
            drawn.append(seed)
            return np.random.default_rng(seed)

        monkeypatch.setattr(seeding, "noise_generator", default_rng)
        unmemoised = run()[1]
        assert len(drawn) == unmemoised.batches
        assert first == second == third == unmemoised
