"""Trajectory streams against NumPy's own `SeedSequence.spawn`: seed words,
first draws, the fallback for other state requests, pickling, refusals,
and the import path that leaves `numpy.random` and the worker pool out.
The PCG64 rows of the jump ensemble against NumPy's `PCG64` and
`Generator.random`, and the Generator state `sample_jump_trajectory`
leaves."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajphase
from trajphase._ensemble import trajectory_seeds, trajectory_words
from trajphase._streams import PCG64Rows, TrajectoryStream
from trajphase.dephasing import dephasing_model
from trajphase.jump import PAIR_BLOCK, sample_jump_trajectory

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


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_rows_draw_what_numpy_draws(seed: int) -> None:
    # Draws of 1, 2, a block, a block and one, and 100 in a row, then a
    # draw of every third row alone: each row's words are PCG64.random_raw
    # and its doubles Generator.random of its stream, bit for bit.
    count = 10**4
    counts = [1, 2, 2 * PAIR_BLOCK, 2 * PAIR_BLOCK + 1, 100]
    total = sum(counts)
    words = trajectory_words(seed, count)
    streams = trajectory_seeds(seed, count)
    assert np.array_equal(words, np.stack([s.generate_state(4, np.uint64) for s in streams]))
    every = np.arange(count)
    for kind in ("raw", "doubles"):
        rows = PCG64Rows.seeded(words)
        draw = getattr(rows, kind)
        got = np.concatenate([draw(every, n) for n in counts], axis=1)
        third = draw(every[::3], 5)
        after = draw(every, 1)
        if kind == "raw":
            want = np.stack([np.random.PCG64(s).random_raw(total + 6) for s in streams])
        else:
            want = np.stack([np.random.default_rng(s).random(total + 6) for s in streams])
        assert got.dtype == want.dtype
        assert got.tobytes() == want[:, :total].tobytes()
        assert third.tobytes() == want[::3, total : total + 5].tobytes()
        # Rows not drawn from stay where they were.
        skipped = np.ones(count, dtype=bool)
        skipped[::3] = False
        assert after[skipped, 0].tobytes() == want[skipped, total].tobytes()
        assert after[~skipped, 0].tobytes() == want[~skipped, total + 5].tobytes()


@pytest.mark.parametrize("total_time", [0.5, 20.0])
def test_sampled_trajectory_leaves_rng_after_whole_blocks(total_time: float) -> None:
    # sigma_z acts on every state, so each draw after the first is a jump:
    # the trajectory takes jumps + 1 pairs, and rng is left as Generator.random
    # would leave it after ceil(pairs / PAIR_BLOCK) blocks. The 32-bit half
    # PCG64 buffers for 32-bit draws is left as it was.
    model = dephasing_model(1.0, 2.0)
    state = np.array([1.0, 1.0]) / np.sqrt(2.0)
    stream = trajectory_seeds(1, 4)[3]
    rng, ref = np.random.default_rng(stream), np.random.default_rng(stream)
    for generator in (rng, ref):
        generator.integers(0, 2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    record = sample_jump_trajectory(model, state, total_time, 1e-3, rng)
    blocks = -(-(len(record.jumps) + 1) // PAIR_BLOCK)
    ref.random(2 * PAIR_BLOCK * blocks)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert blocks == 1 if total_time < 1 else blocks > 2


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_sampled_trajectory_refuses_other_bit_generators(bit_generator) -> None:
    rng = np.random.Generator(bit_generator(0))
    with pytest.raises(TypeError, match=f"PCG64 is required, got one on {bit_generator.__name__}$"):
        sample_jump_trajectory(dephasing_model(1.0, 0.5), [1.0, 0.0], 0.5, 1e-2, rng)
    # Nothing was drawn.
    assert rng.random(4).tobytes() == np.random.Generator(bit_generator(0)).random(4).tobytes()
