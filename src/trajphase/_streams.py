"""Trajectory streams: the children of `np.random.SeedSequence(seed).spawn`,
derived for a whole ensemble in one vectorized pass.

SeedSequence hashes its entropy words (the seed's 32-bit words, zero-padded
to the pool size 4, then the spawn key) into a pool of four words, and
`generate_state` hashes the pool into the words a bit generator is seeded
with. The hash constants do not depend on the data, and for every child
only the last entropy word, its spawn key i, differs. So the pool before
that word is hashed once, and the rest runs on uint32 arrays over all
children. The constants and steps are those of NumPy's `bit_generator.pyx`
(`hashmix`, `mix`, `SeedSequence.mix_entropy` and `generate_state`);
`tests/test_streams.py` checks the result against NumPy word for word.

This module loads `numpy.random`, so `trajphase` imports it only when an
ensemble runs.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# Spawn keys from 2**32 on take two entropy words, which this pass does not
# reproduce.
_MAX_STREAMS = 2**32


class TrajectoryStream(ISeedSequence):
    """Child `index` of `SeedSequence(seed)` (spawn key `(index,)`), carrying
    the four uint64 words that seed a PCG64, so `np.random.default_rng` of
    it equals that of the child. Any other state request is answered by an
    exact `SeedSequence(seed, spawn_key=(index,))`."""

    def __init__(self, seed: int, index: int, words: np.ndarray) -> None:
        self.seed = seed
        self.index = index
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words.copy()
        return np.random.SeedSequence(self.seed, spawn_key=(self.index,)).generate_state(
            n_words, dtype
        )


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _HashMix:
    """SeedSequence's `hashmix` on uint32 arrays, with its running multiplier."""

    def __init__(self) -> None:
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * _MULT_A & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def trajectory_streams(seed: int, count: int) -> list[TrajectoryStream]:
    """The first count children of `SeedSequence(seed)`, in spawn order, as
    streams whose PCG64 words come from one uint32 pass over their keys."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= count < _MAX_STREAMS:
        raise ValueError(f"n_trajectories must be in [0, 2**32), got {count}")
    seed_words = _uint32_words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    entropy = [np.array([word], dtype=np.uint32) for word in seed_words]
    hashmix = _HashMix()
    # SeedSequence.mix_entropy on the words every child shares, as (1,) arrays.
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # The last entropy word is the spawn key, one per child.
    keys = np.arange(count, dtype=np.uint32)
    pool = [_mix(word, hashmix(keys)) for word in pool]
    # generate_state(4, np.uint64): eight uint32 words cycling over the pool.
    state = np.empty((count, 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        data = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        data *= np.uint32(const)
        state[:, i] = data ^ (data >> _XSHIFT)
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    return [TrajectoryStream(seed, i, row) for i, row in enumerate(seeds)]
