"""Trajectory streams: the children of `np.random.SeedSequence(seed).spawn`,
derived for a whole ensemble in one vectorized pass, and PCG64 generators
kept as arrays of states, one row per trajectory.

SeedSequence hashes its entropy words (the seed's 32-bit words, zero-padded
to the pool size 4, then the spawn key) into a pool of four words, and
`generate_state` hashes the pool into the words a bit generator is seeded
with. The hash constants do not depend on the data, and for every child
only the last entropy word, its spawn key i, differs. So the pool before
that word is hashed once, and the rest runs on uint32 arrays over all
children. The constants and steps are those of NumPy's `bit_generator.pyx`
(`hashmix`, `mix`, `SeedSequence.mix_entropy` and `generate_state`);
`tests/test_streams.py` checks the result against NumPy word for word.

`PCG64Rows` holds one PCG64 per row: its 128-bit state and increment as
uint64 (hi, lo) halves, seeded from a stream's words as `np.random.PCG64`
seeds itself. A 128-bit product is formed from 32-bit limbs on uint64
arrays. A block of k outputs per row needs no loop over draws: with M the
LCG multiplier, the state after j steps is M^j s + G_j inc, where
G_j = sum_{i<j} M^i mod 2^128, and the jump-ahead constants M^j and G_j of
j = 1..k are formed once per k. Every operand of that arithmetic is a
uint64 array or an `np.uint64` constant, never a Python int, so NumPy 1.x,
which promotes `np.uint64` mixed with a Python int to float64, computes the
same words. The outputs equal `PCG64.random_raw`, and the doubles
`Generator.random`, bit for bit (`tests/test_streams.py`).

This module loads `numpy.random`, so `trajphase` imports it only when an
ensemble runs.
"""

from __future__ import annotations

import functools
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
# PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128 in NumPy's pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_ONE = np.uint64(1)
_LOW32 = np.uint64(_MASK32)
_HALF = np.uint64(32)
# Generator.random: the top 53 bits of a word times 2^-53.
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 2.0**-53


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


def trajectory_words(seed: int, count: int) -> np.ndarray:
    """The (count, 4) uint64 words that seed the PCG64 of each of the first
    count children of `SeedSequence(seed)`, in spawn order: row i is
    `SeedSequence(seed).spawn(count)[i].generate_state(4, np.uint64)`, from
    one uint32 pass over the spawn keys."""
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
    return state.astype("<u4").view("<u8").astype(np.uint64)


def trajectory_streams(seed: int, count: int) -> list[TrajectoryStream]:
    """The first count children of `SeedSequence(seed)`, in spawn order, as
    streams carrying the rows of `trajectory_words`."""
    words = trajectory_words(seed, count)
    return [TrajectoryStream(seed, i, row) for i, row in enumerate(words)]


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit Python ints as uint64 (hi, lo) arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


def _factor(values, shape=(-1,)) -> tuple[np.ndarray, ...]:
    """128-bit constants as a right factor of `_mul`: their (hi, lo) halves
    and the low and high 32 bits of lo, as uint64 arrays of shape."""
    hi, lo = (half.reshape(shape) for half in _halves(values))
    return hi, lo, lo & _LOW32, lo >> _HALF


def _add(x: tuple, y: tuple) -> tuple[np.ndarray, np.ndarray]:
    """x + y mod 2^128 of (hi, lo) halves, elementwise with broadcasting."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _mul(x: tuple, c: tuple) -> tuple[np.ndarray, np.ndarray]:
    """x c mod 2^128, x as (hi, lo) halves and c a `_factor`, elementwise
    with broadcasting. The low half is the wrapped product of the low
    halves. The high half adds that product's upper 64 bits, formed from
    32-bit limbs (Warren, Hacker's Delight, section 8-2), to the wrapped
    cross products. The sums are taken in place, so that a block of draws
    holds few temporaries of its size."""
    x0, x1 = x[1] & _LOW32, x[1] >> _HALF
    c_hi, c_lo, c0, c1 = c
    hi = x1 * c0
    hi += x0 * c0 >> _HALF
    w = x0 * c1
    w += hi & _LOW32
    hi >>= _HALF
    w >>= _HALF
    hi += w
    del w
    hi += x1 * c1
    hi += x[1] * c_hi
    hi += x[0] * c_lo
    return hi, x[1] * c_lo


_MULT = _factor([_PCG_MULT])


@functools.lru_cache(maxsize=None)
def _jump_ahead(count: int) -> tuple[np.ndarray, ...]:
    """The `_factor` of the (2, 1, count) constants M^j (row 0) and
    G_j = sum_{i<j} M^i mod 2^128 (row 1) of j = 1..count: j steps take a
    state s with increment inc to M^j s + G_j inc."""
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(count):
        power, total = power * _PCG_MULT & _MASK128, total + power & _MASK128
        powers.append(power)
        sums.append(total)
    return _factor(powers + sums, (2, 1, count))


class PCG64Rows:
    """PCG64 generators, one per row. `lcg` is a (2, 2, n) uint64 array:
    the 128-bit state (lcg[0]) and increment (lcg[1]) of each row, as high
    and low halves. Row i draws the words and doubles that `np.random.PCG64`
    with row i's state and increment draws."""

    def __init__(self, state: tuple, inc: tuple) -> None:
        self.lcg = np.array([state, inc], dtype=np.uint64)

    @classmethod
    def seeded(cls, words: np.ndarray) -> "PCG64Rows":
        """One generator per row of (n, 4) uint64 seed words, seeded as
        NumPy's `pcg64_set_seed` does: with initstate words 0-1 and initseq
        words 2-3 (high word first), the state starts at 0 with increment
        (initseq << 1) | 1, takes one step, adds initstate and takes another."""
        words = np.asarray(words, dtype=np.uint64)
        inc = (
            (words[:, 2] << _ONE) | (words[:, 3] >> np.uint64(63)),
            (words[:, 3] << _ONE) | _ONE,
        )
        # The first step from state 0 gives inc.
        state = _add(_mul(_add(inc, (words[:, 0], words[:, 1])), _MULT), inc)
        return cls(state, inc)

    @classmethod
    def of(cls, rng: np.random.Generator) -> "PCG64Rows":
        """One row holding the state of rng's bit generator, which must be
        PCG64: a TypeError names any other, PCG64DXSM included, whose steps
        and outputs differ."""
        state = rng.bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(
                f"a Generator on PCG64 is required, got one on {state['bit_generator']}"
            )
        return cls(_halves([state["state"]["state"]]), _halves([state["state"]["inc"]]))

    def store(self, rng: np.random.Generator) -> None:
        """Write row 0's state into rng's PCG64, leaving its buffered 32-bit
        half (has_uint32, uinteger) as it was."""
        state = rng.bit_generator.state
        hi, lo = self.lcg[0, :, 0].tolist()
        state["state"]["state"] = hi << 64 | lo
        rng.bit_generator.state = state

    def raw(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next count words of each row in rows, as `random_raw` gives
        them, in a (len(rows), count) array; those rows advance past them.
        The states of all count steps come from one product of the rows'
        states and increments with the jump-ahead constants. Word j is the
        XSL-RR output of state j: the xor of its halves, rotated right by
        its top six bits."""
        lcg = self.lcg[:, :, rows, np.newaxis]
        hi, lo = _mul((lcg[:, 0], lcg[:, 1]), _jump_ahead(count))
        hi, lo = _add((hi[0], lo[0]), (hi[1], lo[1]))
        self.lcg[0][:, rows] = hi[:, -1], lo[:, -1]
        word, rot = hi ^ lo, hi >> np.uint64(58)
        return (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))

    def doubles(self, rows: np.ndarray, count: int) -> np.ndarray:
        """The next count doubles of each row in rows, as `Generator.random`
        gives them, in a (len(rows), count) array."""
        return (self.raw(rows, count) >> _DOUBLE_SHIFT).astype(np.float64) * _DOUBLE_SCALE
