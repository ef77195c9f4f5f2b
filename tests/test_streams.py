"""Trajectory streams against NumPy's own `SeedSequence.spawn`: seed words,
first draws, the fallback for other state requests, pickling, refusals,
and the import path that leaves `numpy.random` and the worker pool out."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajphase
from trajphase._ensemble import trajectory_seeds
from trajphase._streams import TrajectoryStream

SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3]


def _indices(count: int, rng: np.random.Generator) -> list[int]:
    """The first, the last and a few random indices below count."""
    return sorted({0, count - 1, *rng.integers(0, count, size=6).tolist()})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 2, 37, 4099])
def test_stream_words_and_draws_equal_seed_sequence_spawn(seed: int, count: int) -> None:
    streams = trajectory_seeds(seed, count)
    children = np.random.SeedSequence(seed).spawn(count)
    got = np.stack([s.generate_state(4, np.uint64) for s in streams])
    want = np.stack([c.generate_state(4, np.uint64) for c in children])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for i in _indices(count, np.random.default_rng(count)):
        assert np.array_equal(
            np.random.default_rng(streams[i]).random(8), np.random.default_rng(children[i]).random(8)
        )


@pytest.mark.parametrize("request_", [(4, np.uint32), (3, np.uint64), (9, np.uint32), (4, "u8")])
def test_other_state_requests_equal_seed_sequence(request_) -> None:
    n_words, dtype = request_
    stream = trajectory_seeds(2**64 + 5, 20)[17]
    child = np.random.SeedSequence(2**64 + 5).spawn(20)[17]
    got, want = stream.generate_state(n_words, dtype), child.generate_state(n_words, dtype)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_state_words_are_not_shared_with_the_caller() -> None:
    stream = trajectory_seeds(3, 4)[2]
    stream.generate_state(4, np.uint64)[:] = 0
    assert np.array_equal(
        stream.generate_state(4, np.uint64),
        np.random.SeedSequence(3).spawn(4)[2].generate_state(4, np.uint64),
    )


def test_streams_survive_a_pickle_round_trip() -> None:
    streams = trajectory_seeds(7, 5)
    again = pickle.loads(pickle.dumps(streams))
    assert all(type(s) is TrajectoryStream for s in again)
    assert [(s.seed, s.index) for s in again] == [(7, i) for i in range(5)]
    for stream, child in zip(again, np.random.SeedSequence(7).spawn(5)):
        assert np.array_equal(
            np.random.default_rng(stream).normal(size=4), np.random.default_rng(child).normal(size=4)
        )


def test_negative_seeds_and_too_many_streams_are_refused() -> None:
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        trajectory_seeds(-1, 4)
    # Spawn keys from 2**32 on take two entropy words; refused before any
    # array is allocated.
    with pytest.raises(ValueError, match="n_trajectories"):
        trajectory_seeds(0, 2**32)
    assert trajectory_seeds(0, 0) == []


def test_import_leaves_numpy_random_and_the_worker_pool_unloaded() -> None:
    code = (
        "import sys\n"
        "import trajphase, trajphase.cli\n"
        "from trajphase.config import load_config\n"
        "load_config('fig1')\n"
        "names = ('numpy.random', 'concurrent.futures.process', 'multiprocessing')\n"
        "print(sorted(m for m in names if m in sys.modules))\n"
    )
    src = str(Path(trajphase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
