"""Deterministic child-seed derivation for fanned-out work items.

Every parallel work item (a grid cell, a ladder rung, a site replay)
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
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Tuple, Union

import numpy as np

__all__ = ["BlockSeeds", "child_seed", "child_seed_range", "child_seeds"]

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


def child_seed_range(run_seed: int, *prefix: _SeedPart, start: int,
                     stop: int) -> np.ndarray:
    """``child_seed(run_seed, *prefix, i)`` for every ``i`` in
    ``range(start, stop)``, as a uint32 array.

    Runs ``SeedSequence``'s entropy mix and first state word over all
    indices at once: the hash constants evolve independently of the
    data, so every row takes the same steps, with the index word as a
    vector.  ``stop`` must not exceed ``2**32`` (one entropy word per
    index); :class:`BlockSeeds` sends larger indices to
    :func:`child_seed`.
    """
    if not 0 <= start <= stop <= 2**32:
        raise ValueError("child_seed_range needs 0 <= start <= stop <= 2**32")
    fixed = [w for part in (run_seed,) + prefix for w in _words(_fold(part))]
    count = stop - start
    entropy = [np.full(count, w, dtype=np.uint32) for w in fixed]
    entropy.append(np.arange(start, stop, dtype=np.uint32))
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
    state = pool[0] ^ np.uint32(_INIT_B)
    state *= np.uint32((_INIT_B * _MULT_B) & _MASK32)
    state ^= state >> _XSHIFT
    return state


class BlockSeeds:
    """``child_seed(run_seed, *prefix, i)`` by index, a block at a time.

    A site loop numbers its batches ``0, 1, 2, ...``; this derives the
    seeds of :data:`SEED_BLOCK` consecutive indices in one
    :func:`child_seed_range` call and serves the block's indices from
    it.  Indices of ``2**32`` or more take :func:`child_seed` itself.
    """

    def __init__(self, run_seed: int, *prefix: _SeedPart) -> None:
        _fold(run_seed)
        self.run_seed = run_seed
        self.prefix = prefix
        self._start = -1
        self._seeds: List[int] = []

    def __getitem__(self, index: int) -> int:
        offset = index - self._start
        if 0 <= offset < len(self._seeds):
            return self._seeds[offset]
        if index >= 2**32:
            return child_seed(self.run_seed, *self.prefix, index)
        if index < 0:
            raise ValueError("seed indices must be non-negative")
        self._start = index - index % SEED_BLOCK
        self._seeds = child_seed_range(
            self.run_seed, *self.prefix, start=self._start,
            stop=self._start + SEED_BLOCK,
        ).tolist()
        return self._seeds[index - self._start]


def child_seeds(
    run_seed: int,
    identities: Iterable[Union[_SeedPart, Tuple[_SeedPart, ...]]],
) -> List[int]:
    """Seeds for a batch of items, one per identity.

    Each identity may be a single part or a tuple of parts (e.g. a grid
    cell's ``(mix, level, policy)`` key).
    """
    return [
        child_seed(run_seed, *identity)
        if isinstance(identity, (tuple, list))
        else child_seed(run_seed, identity)
        for identity in identities
    ]
