"""Property-based tests: block seed derivation == scalar ``child_seed``.

The site loops seed their batches from :class:`BlockSeeds`, which runs
``SeedSequence``'s entropy hash over a block of indices as uint32 arrays.
Every derived seed must equal ``child_seed(run_seed, "site-batch", i)``
and the first uint32 state word of ``np.random.SeedSequence`` over the
same entropy — for zero, one-word and multi-word run seeds, across block
boundaries, and for indices of ``2**32`` or more (which take the scalar
path).

Each BlockSeeds also memoises its current block's ``PCG64`` state
words; those must
equal ``SeedSequence(seed).generate_state(4, np.uint64)``, and
:func:`noise_generator` must draw ``default_rng(seed)``'s stream whether
the seed is memoised or not.
"""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import seeding
from repro.parallel.seeding import (
    SEED_BLOCK,
    BlockSeeds,
    child_seed,
    child_seed_range,
    noise_generator,
    pcg64_words,
)

LABEL = "site-batch"

run_seeds = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**130),
)

#: Indices at and around block edges, anywhere, and past 2**32.
indices = st.one_of(
    st.integers(0, 40).map(lambda k: k * SEED_BLOCK)
    .flatmap(lambda edge: st.integers(max(0, edge - 2), edge + 1)),
    st.integers(0, 2**32 - 1),
    st.integers(2**32 - 3, 2**32 + 3),
    st.integers(2**32, 2**40),
)


def _words(value):
    """``SeedSequence``'s uint32 words of a non-negative integer."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _reference(run_seed, index):
    entropy = _words(run_seed) + [zlib.crc32(LABEL.encode())] + _words(index)
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint32)
    return int(state[0])


@settings(max_examples=200, deadline=None)
@given(run_seed=run_seeds, picks=st.lists(indices, min_size=1, max_size=12))
def test_block_seeds_match_child_seed_and_seed_sequence(run_seed, picks):
    seeds = BlockSeeds(run_seed, LABEL)
    for index in picks:
        expected = child_seed(run_seed, LABEL, index)
        assert seeds[index] == expected
        assert expected == _reference(run_seed, index)


@settings(max_examples=60, deadline=None)
@given(run_seed=run_seeds, start=st.integers(0, 2**32 - 1),
       length=st.integers(0, 40))
def test_range_matches_child_seed(run_seed, start, length):
    stop = min(start + length, 2**32)
    block = child_seed_range(run_seed, LABEL, start=start, stop=stop)
    assert block.dtype == np.uint32
    assert block.tolist() == [
        child_seed(run_seed, LABEL, i) for i in range(start, stop)
    ]


def _seed_sequence_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(run_seed=run_seeds, start=st.integers(0, 2**32 - 1),
       length=st.integers(1, 40))
def test_block_words_match_seed_sequence(run_seed, start, length):
    stop = min(start + length, 2**32)
    seeds = child_seed_range(run_seed, LABEL, start=start, stop=stop)
    words = pcg64_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (seeds.size, 4)
    for seed, row in zip(seeds.tolist(), words):
        assert row.tolist() == _seed_sequence_words(seed)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(
    st.one_of(st.just(0), st.just(2**32 - 1), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=20,
))
def test_words_match_seed_sequence_at_the_edges(seeds):
    words = pcg64_words(np.array(seeds, dtype=np.uint32))
    assert [row.tolist() for row in words] == [
        _seed_sequence_words(seed) for seed in seeds
    ]


def _first_draws(generator):
    return generator.standard_normal(16).tolist()


@settings(max_examples=100, deadline=None)
@given(run_seed=run_seeds, index=st.integers(0, 2**32 - 1))
def test_noise_generator_matches_default_rng_for_block_seeds(run_seed, index):
    seeds = BlockSeeds(run_seed, LABEL)
    seed = seeds[index]
    assert seed in seeding._NOISE_ROWS
    generator = noise_generator(seed)
    # A memoised seed never reaches SeedSequence.
    assert not isinstance(generator.bit_generator.seed_seq,
                          np.random.SeedSequence)
    expected = _first_draws(np.random.default_rng(seed))
    assert _first_draws(generator) == expected
    seeding._NOISE_ROWS.clear()
    assert _first_draws(noise_generator(seed)) == expected


fallback_seeds = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**140),
)


@settings(max_examples=100, deadline=None)
@given(seed=fallback_seeds)
def test_noise_generator_matches_default_rng_for_other_seeds(seed):
    expected = _first_draws(np.random.default_rng(seed))
    assert _first_draws(noise_generator(seed)) == expected
    seeding._NOISE_ROWS.clear()
    assert _first_draws(noise_generator(seed)) == expected
