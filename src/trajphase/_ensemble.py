"""Deterministic trajectory streams, the sampling grid, the block-streaming
driver of the QSD ensemble and optional process parallelism.

Trajectory i always draws from the stream spawned at index i from the run
seed, and chunk results are reduced in index order, so ensemble output is
byte-identical for every TRAJPHASE_THREADS setting. The jump ensemble uses
the seeds, the grid and the worker processes; it takes one draw per jump
rather than per step, so it does not stream.

`stream_ensemble` advances the states of one chunk, held as the columns of
a (d, N) array, through the sampling grid in blocks of steps. Per block it
draws every trajectory's noise from that trajectory's own generator into a
preallocated (N, B, width) buffer, lets a step kernel advance the columns
one step at a time, and hands the block's stored states to the kernel's
reduction once. NumPy generators draw sequentially, so a block of draws
equals the matching slice of one draw over the whole grid; memory stays
bounded by BLOCK_BYTES whatever the number of steps.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")
_R = TypeVar("_R")

THREADS_ENV = "TRAJPHASE_THREADS"

# Working memory of one block of steps of one chunk: its noise, its stored
# states and the kernel's scratch. At 2048 trajectories a QSD block is then
# 128 steps, long enough that the fixed cost of one draw call per trajectory
# stays small against the draws themselves.
BLOCK_BYTES = 16 * 2**20


def trajectory_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(count)


def grid_steps(total_time: float, delta_t: float) -> tuple[int, float]:
    """Number of steps and effective step so the grid ends exactly at
    total_time; silent, for callers that have already warned."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if total_time < delta_t:
        raise ValueError("total_time must be at least delta_t")
    steps = round(total_time / delta_t)
    return steps, total_time / steps


def sampling_grid(total_time: float, delta_t: float) -> tuple[int, float]:
    """`grid_steps`, warning when delta_t had to move to make the grid end
    at total_time."""
    steps, dt = grid_steps(total_time, delta_t)
    if abs(dt - delta_t) > 1e-9 * max(1.0, delta_t):
        warnings.warn(
            f"delta_t adjusted from {delta_t:g} to {dt:g} so the grid ends at total_time",
            RuntimeWarning,
            stacklevel=3,
        )
    return steps, dt


class NoiseSource(NamedTuple):
    """Per-step noise of a chunk: `width` draws per step and trajectory from
    cursors[i], the generator of trajectory i, by its method `draw`."""

    cursors: Sequence[np.random.Generator]
    width: int
    draw: str


def block_length(count: int, bytes_per_step: int, steps: int) -> int:
    """Steps per block so that a block of `count` trajectories needing
    `bytes_per_step` each per step stays within BLOCK_BYTES."""
    return max(1, min(steps, BLOCK_BYTES // max(1, count * bytes_per_step)))


def stream_ensemble(
    x0: np.ndarray,
    steps: int,
    sources: Sequence[NoiseSource],
    kernel,
    scratch_bytes: int = 0,
) -> None:
    """Advance the columns of x0 (d, N) through `steps` kernel steps in
    blocks of noise, states and reductions.

    Per block of n steps starting at step `start`, the kernel provides:
      kernel.draws(noise) -> per-step draws from the raw (N, n, width) noise
        blocks of the sources; element j goes to step start + j;
      kernel.step(k, x, out, draws_k) advances the (d, N) states x over step
        k into out;
      kernel.reduce(first, states) reduces the (n, d, N) states of grid
        points first..first + n - 1, once per block. The last of them
        starts the next block, so edits to it carry on.

    scratch_bytes is the kernel's own block memory per trajectory-step; it
    counts towards BLOCK_BYTES with the noise and the stored states.
    """
    dim, count = x0.shape
    per_step = sum(8 * s.width for s in sources) + 16 * dim + scratch_bytes
    block = block_length(count, per_step, steps)
    buffers = [np.empty((count, block, s.width)) for s in sources]
    fills = [[getattr(c, s.draw) for c in s.cursors] for s in sources]
    states = np.empty((block + 1, dim, count), dtype=complex)
    states[0] = x0
    for start in range(0, steps, block):
        n = min(block, steps - start)
        for fill, buf in zip(fills, buffers):
            for draw, row in zip(fill, buf):
                draw(out=row[:n])
        draws = kernel.draws([buf[:, :n] for buf in buffers])
        for j in range(n):
            kernel.step(start + j, states[j], states[j + 1], draws[j])
        kernel.reduce(start + 1, states[1 : n + 1])
        states[0] = states[n]


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {THREADS_ENV}={raw!r}", RuntimeWarning, stacklevel=2
        )
        return 1
    return max(1, value)


def map_ordered(fn: Callable[[_T], _R], jobs: Sequence[_T]) -> list[_R]:
    """fn over jobs, preserving job order in the result list."""
    workers = min(thread_count(), len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
