"""Deterministic child-seed derivation for fanned-out work items.

Every parallel work item (a grid cell, a site replay, a shift batch)
needs its own noise seed.  Drawing those seeds from a parent RNG would
make them depend on *submission order* — which worker counts and
chunking change — so instead each child seed is derived from
``np.random.SeedSequence`` spawned purely from ``(run_seed, item
identity)``.  Identical inputs produce identical seeds whether the item
runs serially, in a pool of 4, or alone; the parent RNG is never
consulted.

String identities are folded to integers with CRC-32 (Python's
``hash()`` is salted per process and therefore unusable for
reproducibility).

A scalar ``SeedSequence`` costs about 20 µs, which adds up when a site
loop seeds thousands of batches.  :func:`child_seed_range` derives the
seeds of a whole range of trailing indices at once by running
``SeedSequence``'s entropy hash over uint32 arrays, and
:class:`BlockSeeds` serves a loop's seeds from such ranges a block at a
time.  Both are bit-identical to :func:`child_seed`.

Each seed then seeds one noise stream, ``default_rng(seed)``, whose
``PCG64`` hashes the seed through a second scalar ``SeedSequence``.  A
:class:`BlockSeeds` therefore also derives each block's ``PCG64`` state
words (:func:`pcg64_words`, the same hash over uint32 arrays) into a
memo of at most two blocks per live BlockSeeds, and
:func:`noise_generator` builds a seed's generator from its memoised
words: the same stream, about 2 µs instead of 21 µs.
"""

from __future__ import annotations

import itertools
import weakref
import zlib
from typing import Dict, List, Tuple, Union

import numpy as np

__all__ = [
    "BlockSeeds",
    "child_seed",
    "child_seed_range",
    "noise_generator",
    "pcg64_words",
]

_SeedPart = Union[int, str]

# ``SeedSequence``'s hash constants (``numpy/random/bit_generator.pyx``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

#: Indices per vectorised derivation in :class:`BlockSeeds`.  One
#: derivation costs about as much as eight scalar ones, whatever its
#: length.
SEED_BLOCK = 1024


def _fold(part: _SeedPart) -> int:
    """One entropy word from an identity component."""
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    if isinstance(part, int):
        if part < 0:
            raise ValueError("integer seed parts must be non-negative")
        return part
    return zlib.crc32(part.encode("utf-8"))


def child_seed(run_seed: int, *identity: _SeedPart) -> int:
    """The deterministic seed for one work item.

    Parameters
    ----------
    run_seed:
        The experiment-level seed (e.g. ``ExperimentConfig.run_seed``).
    identity:
        What the item *is* — indices and/or names.  Content-addressed:
        the same identity yields the same seed regardless of how many
        other items exist or in what order they are submitted.

    Returns
    -------
    int
        A 32-bit seed suitable for ``np.random.default_rng`` and
        :class:`~repro.sim.execution.SimulationOptions`.
    """
    entropy = [_fold(run_seed)] + [_fold(part) for part in identity]
    sequence = np.random.SeedSequence(entropy)
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def _words(value: int) -> List[int]:
    """The uint32 entropy words ``SeedSequence`` makes of an integer."""
    if value == 0:
        return [0]
    words = []
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_pool(entropy: List[np.ndarray], count: int) -> List[np.ndarray]:
    """``SeedSequence``'s entropy pool, one uint32 array per pool word.

    ``entropy`` holds one uint32 array of length ``count`` per entropy
    word.  The hash constants evolve independently of the data, so every
    row takes the same steps, with each word as a vector.
    """
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value *= np.uint32(const)
        value ^= value >> _XSHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        result ^= result >> _XSHIFT
        return result

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _pool_state(pool: List[np.ndarray], n_words: int) -> List[np.ndarray]:
    """``SeedSequence.generate_state(n_words, np.uint32)`` of a pool, as
    one uint32 array per state word."""
    const = _INIT_B
    state = []
    for i in range(n_words):
        word = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        word *= np.uint32(const)
        word ^= word >> _XSHIFT
        state.append(word)
    return state


def child_seed_range(run_seed: int, *prefix: _SeedPart, start: int,
                     stop: int) -> np.ndarray:
    """``child_seed(run_seed, *prefix, i)`` for every ``i`` in
    ``range(start, stop)``, as a uint32 array.

    Runs ``SeedSequence``'s entropy mix and first state word over all
    indices at once, with the index word as a vector.  ``stop`` must not
    exceed ``2**32`` (one entropy word per index); :class:`BlockSeeds`
    sends larger indices to :func:`child_seed`.
    """
    if not 0 <= start <= stop <= 2**32:
        raise ValueError("child_seed_range needs 0 <= start <= stop <= 2**32")
    fixed = [w for part in (run_seed,) + prefix for w in _words(_fold(part))]
    count = stop - start
    entropy = [np.full(count, w, dtype=np.uint32) for w in fixed]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
    return _pool_state(_seed_pool(entropy, count), 1)[0]


def pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each
    uint32 seed, shape ``(len(seeds), 4)``.

    These are the words ``PCG64(seed)`` seeds its state and increment
    with: eight uint32 state words read pairwise as little-endian
    uint64, as ``generate_state`` reads them.
    """
    seeds = np.asarray(seeds, dtype=np.uint32)
    state = np.stack(_pool_state(_seed_pool([seeds], seeds.size), 8), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _state_words_type() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` precomputed state words.

    Made on the first memo fill, so that importing this module does not
    import ``numpy.random`` (about 15 ms of an importer's setup).
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for exactly its four uint64 words.
            return self.words

    return StateWords


#: PCG64 state words of the latest two blocks of every live
#: :class:`BlockSeeds`.  Each block gets a fresh slot:
#: ``_NOISE_BLOCKS[slot]`` holds its ``(SEED_BLOCK, 4)`` word table and
#: its seeds, and ``_NOISE_ROWS`` maps each seed to ``slot * SEED_BLOCK +
#: row`` (one int per seed keeps the index small).  BlockSeeds run in
#: lockstep therefore never evict each other.
_NOISE_ROWS: Dict[int, int] = {}
_NOISE_BLOCKS: Dict[int, Tuple[np.ndarray, List[int]]] = {}
_NOISE_SLOTS = itertools.count()
_StateWords = None  # set by the first memo fill


def _remember_noise_words(block: np.ndarray, seeds: List[int]) -> int:
    """Memoise ``block``'s state words (``seeds`` is ``block.tolist()``)
    under a fresh slot, which it returns."""
    global _StateWords
    if _StateWords is None:
        _StateWords = _state_words_type()
    slot = next(_NOISE_SLOTS)
    _NOISE_BLOCKS[slot] = (pcg64_words(block), seeds)
    base = slot * SEED_BLOCK
    _NOISE_ROWS.update(zip(seeds, range(base, base + len(seeds))))
    return slot


def _withdraw_noise_words(slots: List[int], keep: int = 0) -> None:
    """Withdraw all but the last ``keep`` of ``slots``' blocks (a seed
    another block has since claimed stays)."""
    while len(slots) > keep:
        slot = slots.pop(0)
        for seed in _NOISE_BLOCKS.pop(slot)[1]:
            if _NOISE_ROWS.get(seed, -1) // SEED_BLOCK == slot:
                del _NOISE_ROWS[seed]


def noise_generator(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``, built from memoised state words
    when the memoised block of a live :class:`BlockSeeds` holds ``seed``.

    Both build the same ``PCG64`` state, so their streams are
    bit-identical; the memo only skips ``SeedSequence``'s scalar hash
    (about 19 µs of the 21 µs a ``Generator(PCG64(seed))`` costs).
    Other seeds take ``Generator(PCG64(seed))`` itself.
    """
    code = _NOISE_ROWS.get(seed)
    if code is None:
        return np.random.Generator(np.random.PCG64(seed))
    words = _NOISE_BLOCKS[code // SEED_BLOCK][0][code % SEED_BLOCK]
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


class BlockSeeds:
    """``child_seed(run_seed, *prefix, i)`` by index, a block at a time.

    A site loop numbers its batches ``0, 1, 2, ...``; this derives the
    seeds of :data:`SEED_BLOCK` consecutive indices in one
    :func:`child_seed_range` call and serves the block's indices from
    it.  It memoises the ``PCG64`` state words of its current block and
    the one before for :func:`noise_generator` (a pass planned across a
    block boundary executes seeds of both).  Indices of ``2**32`` or more
    take :func:`child_seed` itself.
    """

    def __init__(self, run_seed: int, *prefix: _SeedPart) -> None:
        _fold(run_seed)
        self.run_seed = run_seed
        self.prefix = prefix
        self._start = -1
        self._seeds: List[int] = []
        # Memo slots of the previous and the current block, withdrawn
        # with this object.
        self._slots: List[int] = []
        weakref.finalize(self, _withdraw_noise_words, self._slots) \
            .atexit = False

    def __getitem__(self, index: int) -> int:
        offset = index - self._start
        if 0 <= offset < len(self._seeds):
            return self._seeds[offset]
        if index >= 2**32:
            return child_seed(self.run_seed, *self.prefix, index)
        if index < 0:
            raise ValueError("seed indices must be non-negative")
        self._start = index - index % SEED_BLOCK
        block = child_seed_range(
            self.run_seed, *self.prefix, start=self._start,
            stop=self._start + SEED_BLOCK,
        )
        self._seeds = block.tolist()
        self._slots.append(_remember_noise_words(block, self._seeds))
        _withdraw_noise_words(self._slots, keep=2)
        return self._seeds[index - self._start]

