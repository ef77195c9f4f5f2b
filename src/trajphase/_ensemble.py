"""What both ensembles share: deterministic trajectory streams, the sampling
grid, chunk jobs, optional process parallelism and one reduction,
`mean_and_error`.

An ensemble plans its kernel once per pass, a `qsd._QSDKernel` or a
`jump._JumpSampler`. This module owns the chunk jobs that carry it:
`chunk_jobs` builds them and `run_chunk` runs one, by `kernel.chunk`.

Trajectory i always draws from child i of `SeedSequence(seed).spawn`, whose
PCG64 words `_streams` derives for all trajectories in one vectorized pass,
and chunk results are joined in index order, so ensemble output is
byte-identical for every TRAJPHASE_THREADS setting. `numpy.random` and the
process pool are imported only when a run needs them.
"""

from __future__ import annotations

import os
import warnings
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

if TYPE_CHECKING:
    from ._streams import TrajectoryStream

_T = TypeVar("_T")
_R = TypeVar("_R")

THREADS_ENV = "TRAJPHASE_THREADS"
# Trajectories per worker batch.
DEFAULT_CHUNK = 2048


def trajectory_seeds(seed: int, count: int) -> list[TrajectoryStream]:
    """The streams of trajectories 0..count-1 of a run: as seeds of
    np.random.default_rng, the first count children of SeedSequence(seed).
    A negative seed and a count of 2**32 or more raise ValueError."""
    from ._streams import trajectory_streams

    return trajectory_streams(seed, count)


def trajectory_words(seed: int, count: int) -> np.ndarray:
    """The (count, 4) uint64 PCG64 seed words of trajectories 0..count-1,
    those of `trajectory_seeds` as one array, for `_streams.PCG64Rows`."""
    from ._streams import trajectory_words

    return trajectory_words(seed, count)


def chunk_jobs(model, kernel, vec, total_time: float, delta_t: float, seeds, chunk_size: int):
    """(model, kernel, vec, total_time, delta_t, seeds) per chunk of
    chunk_size consecutive seeds, the last one possibly shorter. The model,
    total time and step ride along for bench/tracing.py's chunk counts."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (model, kernel, vec, total_time, delta_t, seeds[lo : lo + chunk_size])
        for lo in range(0, len(seeds), chunk_size)
    ]


def run_chunk(job):
    """The arrays of one job of `chunk_jobs`, `kernel.chunk(vec, seeds)`:
    trajectory i draws from seeds[i] alone, so they do not depend on how the
    trajectories are grouped into chunks."""
    _, kernel, vec, _, _, seeds = job
    return kernel.chunk(vec, seeds)


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
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def mean_and_error(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the last axis of samples and its standard error,
    sqrt(sum |x - mean|^2 / (n - 1) / n) or 0 for n = 1, in two passes so
    that a small spread about a large mean keeps its digits. Float or complex
    samples, last axis contiguous, are overwritten; others are copied."""
    x = samples if np.issubdtype(samples.dtype, np.inexact) else samples.astype(float)
    n = x.shape[-1]
    mean = x.mean(axis=-1)
    x -= mean[..., np.newaxis]
    # Complex deviations read as interleaved real and imaginary parts.
    parts = x.view(x.real.dtype)
    np.square(parts, out=parts)
    return mean, np.sqrt(parts.sum(axis=-1) / max(n - 1, 1) / n)
