"""The block-streaming ensemble kernels against the per-step loops they
replaced, on seeded random models (dim 2-4, 1-3 channels, 3-cell piecewise
shifts), plus determinism and bounded memory."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import trajphase._ensemble as ensemble
from trajphase._ensemble import grid_steps, trajectory_seeds
from trajphase.dephasing import dephasing_model
from trajphase.jump import (
    StepSizeError,
    _ensemble_chunk,
    average_jump_ensemble,
    sample_jump_trajectory,
)
from trajphase.lindblad import LindbladModel, ShiftSet, lower_model
from trajphase.operators import (
    BlochAngles,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    bloch_state,
    pauli,
    step_propagators,
)
from trajphase.qsd import (
    NORM_OVERFLOW,
    QSDConfig,
    _checkpoint_indices,
    _checkpoint_intervals,
    _qsd_chunk,
    _QSDKernel,
    averaged_geometric_phase,
    averaged_overlap,
)

EQUATOR = bloch_state(BlochAngles(math.pi / 2, 0.0))
CELL = 0.5
CELLS = 3
SIZES = list(itertools.product((2, 3, 4), (1, 2, 3)))
# None keeps the module's budget; the others force blocks of one step and
# of a handful of steps, so blocks end mid-run.
BUDGETS = [None, 1, 40_000]


# --- reference loops: the per-step kernels as they were -------------------


def _reference_qsd_chunk(args) -> tuple:
    """The per-step QSD chunk; also returns the step after which each
    trajectory overflowed (-1 if never)."""
    model, shifts, vec, total_time, delta_t, streams = args
    steps, dt = grid_steps(total_time, delta_t)
    lowered = lower_model(model, shifts)
    checkpoints = _checkpoint_indices(steps, _checkpoint_intervals(lowered, total_time))
    lam = model.strength
    count = len(streams)
    dim = vec.shape[0]
    channels = len(model.lindblads)

    rngs = [np.random.default_rng(s) for s in streams]
    noise = np.stack([r.standard_normal((steps, 2 * channels)) for r in rngs])
    scale = np.sqrt(dt / 2.0)
    dws = scale * (noise[:, :, :channels] + 1j * noise[:, :, channels:])

    cells = lowered.step_cells(0.0, total_time, steps).tolist()
    mats = [
        (np.eye(dim) + dt * (-1j * c.k_tilde), [np.sqrt(lam) * l for l in c.channels])
        for c in lowered.values
    ]

    states = np.tile(vec, (count, 1))
    alive = np.ones(count, dtype=bool)
    blown_at = np.full(count, -1)
    z_buffer = np.empty((count, len(checkpoints)), dtype=complex)
    z_buffer[:, 0] = states @ vec.conj()
    next_cp = 1
    for k in range(steps):
        euler, noise_ops = mats[cells[k]]
        new_states = states @ euler.T
        for m, op in enumerate(noise_ops):
            new_states += dws[:, k, m, np.newaxis] * (states @ op.T)
        states = new_states
        norms = np.linalg.norm(states, axis=1)
        blown = alive & ~(norms < NORM_OVERFLOW)
        if blown.any():
            alive &= ~blown
            blown_at[blown] = k
            states[blown] = 0.0
        if next_cp < len(checkpoints) and k + 1 == checkpoints[next_cp]:
            z_buffer[:, next_cp] = states @ vec.conj()
            next_cp += 1

    z_alive = z_buffer[alive]
    z_sums = z_alive.sum(axis=0)
    final = z_alive[:, -1]
    return (
        z_sums,
        float(np.sum(final.real**2)),
        float(np.sum(final.imag**2)),
        int(alive.sum()),
        int(count - alive.sum()),
        blown_at,
    )


def _reference_step_terms(model, shifts, total_time, steps) -> list[tuple]:
    lowered = lower_model(model, shifts)
    maps, cells = step_propagators(lowered.operators(lambda c: c.k_tilde), 0.0, total_time, steps)
    return [(maps[c], lowered.values[c].channels) for c in cells.tolist()]


def _reference_advance_batch(states, step, k, dt, lam, u_jump, u_chan):
    u, ls = step
    amps = [states @ l.T for l in ls]
    probs = np.stack(
        [lam * dt * np.sum(np.abs(a) ** 2, axis=1) for a in amps], axis=1
    )
    totals = probs.sum(axis=1)
    if float(totals.max(initial=0.0)) > 1.0:
        raise StepSizeError(
            f"total jump probability {totals.max():g} exceeds 1 at step {k}; reduce delta_t"
        )
    jumped = u_jump < totals
    channel = np.zeros(states.shape[0], dtype=np.int64)
    if jumped.any():
        cum = np.cumsum(probs, axis=1)
        targets = u_chan * totals
        channel = np.sum(cum <= targets[:, None], axis=1)
        for m, amp in enumerate(amps):
            mask = jumped & (channel == m)
            if mask.any():
                states[mask] = amp[mask]
    quiet = ~jumped
    if quiet.any():
        states[quiet] = states[quiet] @ u.T
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return jumped, channel


def _reference_jump_chunk(args) -> tuple:
    model, shifts, vec, total_time, delta_t, streams = args
    steps, dt = grid_steps(total_time, delta_t)
    terms = _reference_step_terms(model, shifts, total_time, steps)
    lam = model.strength
    count = len(streams)
    dim = vec.shape[0]

    rngs = [np.random.default_rng(s) for s in streams]
    u_jump = np.stack([r.random(steps) for r in rngs])
    u_chan = np.stack([r.random(steps) for r in rngs])

    states = np.tile(vec, (count, 1))
    jumps = np.zeros(count, dtype=np.int64)
    sum_proj = np.zeros((steps + 1, dim, dim), dtype=complex)
    sum_re2 = np.zeros((steps + 1, dim, dim))
    sum_im2 = np.zeros((steps + 1, dim, dim))

    def accumulate(k: int) -> None:
        proj = states[:, :, np.newaxis] * states[:, np.newaxis, :].conj()
        sum_proj[k] += proj.sum(axis=0)
        sum_re2[k] += np.sum(proj.real**2, axis=0)
        sum_im2[k] += np.sum(proj.imag**2, axis=0)

    accumulate(0)
    for k in range(steps):
        jumped, _ = _reference_advance_batch(
            states, terms[k], k, dt, lam, u_jump[:, k], u_chan[:, k]
        )
        jumps += jumped
        accumulate(k + 1)
    return sum_proj, sum_re2, sum_im2, jumps


def _reference_trajectory(model, vec, total_time, delta_t, rng, shifts):
    steps, dt = grid_steps(total_time, delta_t)
    terms = _reference_step_terms(model, shifts, total_time, steps)
    u_jump = rng.random(steps)
    u_chan = rng.random(steps)
    states = np.empty((steps + 1, vec.shape[0]), dtype=complex)
    batch = vec[np.newaxis, :].copy()
    events = []
    for k in range(steps):
        states[k] = batch[0]
        jumped, channel = _reference_advance_batch(
            batch, terms[k], k, dt, model.strength, u_jump[k : k + 1], u_chan[k : k + 1]
        )
        if jumped[0]:
            events.append((k * dt, int(channel[0])))
    states[steps] = batch[0]
    return states, events


# --- random models ----------------------------------------------------------


def _random_model(dim: int, count: int, strength: float, rng) -> LindbladModel:
    def matrix() -> np.ndarray:
        return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim

    h = matrix()
    channels = tuple(Operator(matrix()) for _ in range(count))
    return LindbladModel(Operator(h + h.conj().T), channels, strength)


def _random_shifts(count: int, rng) -> ShiftSet:
    def values():
        return 0.5 * (rng.normal(size=CELLS) + 1j * rng.normal(size=CELLS))

    return ShiftSet(tuple(ScalarSchedule.piecewise(values(), CELL) for _ in range(count)))


def _random_state(dim: int, rng) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _job(dim: int, count: int, strength: float, trajectories: int, seed: int):
    rng = np.random.default_rng(seed)
    model = _random_model(dim, count, strength, rng)
    shifts = _random_shifts(count, rng)
    vec = _random_state(dim, rng)
    return (model, shifts, vec, CELLS * CELL, 1e-2, trajectory_seeds(seed, trajectories))


def _relative_gap(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.fixture(params=BUDGETS, ids=["budget", "one-step", "few-steps"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(ensemble, "BLOCK_BYTES", request.param)
    return request.param


# --- QSD --------------------------------------------------------------------


@pytest.mark.parametrize("dim,count", SIZES)
def test_qsd_chunk_matches_reference_loop(dim: int, count: int, budget) -> None:
    args = _job(dim, count, 0.4, 24, 300 + 10 * dim + count)
    z_sums, re2, im2, used, excluded = _qsd_chunk((args[0], [args[1]], *args[2:]))[0]
    want = _reference_qsd_chunk(args)
    assert (used, excluded) == want[3:5] == (24, 0)
    assert _relative_gap(z_sums, want[0]) <= 1e-12
    assert re2 == pytest.approx(want[1], rel=1e-12)
    assert im2 == pytest.approx(want[2], rel=1e-12)


@pytest.mark.parametrize("block_steps", [None, 5])
def test_qsd_excludes_the_same_trajectories(block_steps, monkeypatch) -> None:
    # lambda = 60 overflows most trajectories, at steps all over the run.
    model = dephasing_model(1.0, 60.0)
    vec = np.asarray(EQUATOR.amplitudes)
    seeds = trajectory_seeds(0, 16)
    if block_steps is not None:
        # One-trajectory chunks: noise 16 B, state 32 B, increment 16 B per step.
        monkeypatch.setattr(ensemble, "BLOCK_BYTES", 64 * block_steps)
    got = [_qsd_chunk((model, [None], vec, 24.0, 0.1, [s]))[0][4] for s in seeds]
    want = _reference_qsd_chunk((model, None, vec, 24.0, 0.1, seeds))
    blown_at = want[5]
    assert got == (blown_at >= 0).astype(int).tolist()
    assert 0 < sum(got) < 16
    if block_steps is not None:
        # Some overflow falls strictly inside a block of steps.
        ends = (blown_at[blown_at >= 0] + 1) % block_steps
        assert np.any(ends != 0)
    whole = _qsd_chunk((model, [None], vec, 24.0, 0.1, seeds))[0]
    assert whole[3:] == want[3:5]
    assert _relative_gap(whole[0], want[0]) <= 1e-12


def test_qsd_overflow_screen_keeps_the_per_step_rule() -> None:
    # Columns: fine; nan mid-block; norm exactly at the threshold with every
    # entry below it; a spike that returns below the threshold; inf.
    lowered = lower_model(dephasing_model(1.0, 0.1))
    vec = np.array([1.0, 0.0], dtype=complex)
    kernel = _QSDKernel([lowered], 1.0, 10, vec, 5)
    states = np.ones((4, 2, 5), dtype=complex)
    states[1, 0, 1] = np.nan
    states[2, :, 2] = NORM_OVERFLOW / math.sqrt(2.0)
    states[1, 1, 3] = 1e150
    states[2, 0, 4] = np.inf
    assert np.linalg.norm(states[2, :, 2]) >= NORM_OVERFLOW
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.reduce(1, states)
    assert kernel.alive[0].tolist() == [True, False, False, False, False]
    # Excluded trajectories restart from zero in the next block.
    assert np.all(states[-1][:, 1:] == 0.0)
    assert np.all(states[-1][:, 0] == 1.0)


def _check_points_against_reference(model, shift_sets, vec, total_time, delta_t, seeds):
    """One batched chunk over shift_sets against the per-point reference
    loop and against one-point chunks; returns each point's overflow steps."""
    job = (model, shift_sets, vec, total_time, delta_t, seeds)
    points = _qsd_chunk(job)
    assert len(points) == len(shift_sets)
    blown_at = []
    for shifts, got in zip(shift_sets, points):
        want = _reference_qsd_chunk((model, shifts, vec, total_time, delta_t, seeds))
        assert got[3:] == want[3:5]
        assert _relative_gap(got[0], want[0]) <= 1e-12
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        assert got[2] == pytest.approx(want[2], rel=1e-12)
        # The other points change nothing, not even roundoff.
        (alone,) = _qsd_chunk((model, [shifts], vec, total_time, delta_t, seeds))
        assert got[0].tobytes() == alone[0].tobytes()
        assert got[1:] == alone[1:]
        blown_at.append(want[5])
    return blown_at


@pytest.mark.parametrize("block_bytes", [None, 40_000], ids=["budget", "few-steps"])
@pytest.mark.parametrize("dim,count", SIZES)
def test_qsd_points_in_one_pass_match_reference_loop(
    dim: int, count: int, block_bytes, monkeypatch
) -> None:
    if block_bytes is not None:
        monkeypatch.setattr(ensemble, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(600 + 10 * dim + count)
    model = _random_model(dim, count, 0.4, rng)
    constant = ShiftSet.constants(list(rng.normal(size=count) + 1j * rng.normal(size=count)))
    shift_sets = [None, constant, _random_shifts(count, rng)]
    vec = _random_state(dim, rng)
    seeds = trajectory_seeds(700 + dim, 24)
    _check_points_against_reference(model, shift_sets, vec, CELLS * CELL, 1e-2, seeds)


def test_qsd_point_overflow_stays_in_its_point(monkeypatch) -> None:
    # lambda = 60 with L = identity: unshifted, the Euler factor 1 - 3 and
    # strong noise overflow most trajectories after about 250 steps; at f = 1
    # the shifted channel vanishes and nothing overflows. Blocks of 5 steps put overflows inside
    # blocks: per trajectory-step, noise 16 B, three points' states 96 B and
    # the increment 16 B.
    model = LindbladModel(0.5 * pauli("z"), (Operator(np.eye(2)),), 60.0)
    vec = np.asarray(EQUATOR.amplitudes)
    monkeypatch.setattr(ensemble, "BLOCK_BYTES", 16 * (16 + 96 + 16) * 5)
    shift_sets = [None, ShiftSet.constants([1.0]), ShiftSet.constants([0.1])]
    blown_at = _check_points_against_reference(
        model, shift_sets, vec, 26.0, 0.1, trajectory_seeds(0, 16)
    )
    overflowed = blown_at[0][blown_at[0] >= 0]
    assert 0 < len(overflowed) < 16
    assert np.any((overflowed + 1) % 5 != 0)
    assert np.all(blown_at[1] < 0)


def test_qsd_ensemble_invariant_to_threads_and_chunks(monkeypatch) -> None:
    rng = np.random.default_rng(5)
    model = _random_model(3, 2, 0.4, rng)
    shifts = _random_shifts(2, rng)
    vec = _random_state(3, rng)
    config = QSDConfig(CELLS * CELL, 1e-2, 48, seed=8)

    def run(chunk: int) -> tuple:
        res = averaged_geometric_phase(model, vec, config, shifts, 64, chunk)
        return res.mean_overlap, res.std_error, res.overlap_arg, res.phase, res.n_used

    outs = {}
    for threads, chunk in [("1", 16), ("2", 16), ("1", 48), ("1", 7)]:
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        outs[threads, chunk] = run(chunk)
    assert outs["1", 16] == outs["2", 16]
    for chunk in (48, 7):
        assert outs["1", chunk][-1] == outs["1", 16][-1] == 48
        for a, b in zip(outs["1", chunk][:-1], outs["1", 16][:-1]):
            assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


def _qsd_peak_bytes(total_time: float) -> int:
    model = dephasing_model(1.0, 0.1)
    config = QSDConfig(total_time, 1e-3, 256, seed=1)
    tracemalloc.start()
    try:
        averaged_overlap(model, EQUATOR, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_qsd_working_memory_does_not_grow_with_total_time() -> None:
    short = _qsd_peak_bytes(2.0)
    long = _qsd_peak_bytes(8.0)
    # Noise for the short run alone is 256 x 2000 x 16 B = 8 MB; the long
    # run would need four times that if memory followed the step count.
    assert long <= 1.1 * short + 2**20


# --- jumps ------------------------------------------------------------------


@pytest.mark.parametrize("dim,count", SIZES)
def test_jump_chunk_matches_reference_loop(dim: int, count: int, budget) -> None:
    args = _job(dim, count, 0.4, 40, 400 + 10 * dim + count)
    sum_proj, sum_re2, sum_im2, jumps = _ensemble_chunk(args)
    want = _reference_jump_chunk(args)
    assert jumps.tobytes() == want[3].tobytes()
    assert jumps.sum() > 0
    for got, ref in zip((sum_proj, sum_re2, sum_im2), want[:3]):
        assert _relative_gap(got, ref) <= 1e-12


@pytest.mark.parametrize("dim,count", [(2, 1), (3, 2), (4, 3)])
def test_sampled_trajectory_matches_reference_loop(dim: int, count: int) -> None:
    rng = np.random.default_rng(500 + dim)
    model = _random_model(dim, count, 2.0, rng)
    shifts = _random_shifts(count, rng)
    vec = _random_state(dim, rng)
    record = sample_jump_trajectory(model, vec, 1.5, 1e-2, np.random.default_rng(3), shifts)
    states, events = _reference_trajectory(model, vec, 1.5, 1e-2, np.random.default_rng(3), shifts)
    assert [(e.time, e.channel) for e in record.jumps] == events
    assert events
    assert np.max(np.abs(record.states - states)) <= 1e-12


def _step_size_messages(args) -> tuple[str, str]:
    with pytest.raises(StepSizeError) as got:
        _ensemble_chunk(args)
    with pytest.raises(StepSizeError) as want:
        _reference_jump_chunk(args)
    return str(got.value), str(want.value)


def test_step_size_error_keeps_message_and_step(budget) -> None:
    vec = np.asarray(EQUATOR.amplitudes)
    # A shift so large that the first step already fails.
    strong = (dephasing_model(1.0, 1.0), ShiftSet.constants([30.0]), vec, 0.5, 1e-2)
    got, want = _step_size_messages(strong + (trajectory_seeds(0, 4),))
    assert got == want
    assert "at step 0;" in got
    # A channel that only becomes strong in the last of three cells, so the
    # failure comes mid-run, after the first blocks.
    zero = Operator(np.zeros((2, 2)))
    channel = OperatorSchedule.piecewise([0.3 * pauli("x"), zero, 6 * pauli("z")], 0.5)
    model = LindbladModel(OperatorSchedule.constant(pauli("z")), (channel,), 3.0)
    late = (model, None, vec, 1.5, 1e-2, trajectory_seeds(2, 8))
    got, want = _step_size_messages(late)
    assert got == want
    assert "at step 100;" in got


def test_jump_ensemble_invariant_to_threads_and_chunks(monkeypatch) -> None:
    rng = np.random.default_rng(6)
    model = _random_model(2, 2, 0.4, rng)
    shifts = _random_shifts(2, rng)
    vec = _random_state(2, rng)
    outs = {}
    for threads, chunk in [("1", 16), ("2", 16), ("1", 64), ("1", 7)]:
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        outs[threads, chunk] = average_jump_ensemble(
            model, vec, CELLS * CELL, 1e-2, 64, seed=4, shifts=shifts, chunk_size=chunk
        )
    one, two = outs["1", 16], outs["2", 16]
    for name in ("estimates", "std_error", "jump_counts"):
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes()
    for chunk in (64, 7):
        other = outs["1", chunk]
        assert other.jump_counts.tobytes() == one.jump_counts.tobytes()
        assert _relative_gap(other.estimates, one.estimates) <= 1e-12
