"""The ensemble kernels against step-by-step reference loops, on seeded
random models (dim 2-4, 1-3 channels, 3-cell piecewise shifts): the QSD
kernel, several steps per table gather, against the per-step loop, and the
jump sampler against the waiting-time law taken one step at a time; plus
the jump law against the master equation, determinism and bounded
memory."""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajphase.jump as jump
import trajphase.operators as operators
import trajphase.qsd as qsd
from trajphase._ensemble import grid_steps, mean_and_error, run_chunk, trajectory_seeds
from trajphase._ensemble import trajectory_words
from trajphase._streams import PCG64Rows
from trajphase.dephasing import dephasing_model
from trajphase.jump import (
    StepSizeError,
    _JumpSampler,
    average_jump_ensemble,
    sample_jump_trajectory,
)
from trajphase.lindblad import DensityMatrix, LindbladModel, ShiftSet, evolve_states, lower_model
from trajphase.lindblad import lower_sweep, stack_shifts
from trajphase.operators import (
    BlochAngles,
    MapPowers,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    bloch_state,
    pauli,
    step_propagators,
    wrap_phase,
)
from trajphase.qsd import (
    NORM_OVERFLOW,
    QSDConfig,
    _mean_path_arg,
    _QSDKernel,
    averaged_geometric_phase,
    averaged_geometric_phases,
    averaged_overlap,
)

EQUATOR = bloch_state(BlochAngles(math.pi / 2, 0.0))
CELL = 0.5
CELLS = 3
SIZES = list(itertools.product((2, 3, 4), (1, 2, 3)))
# QSD ops of one step whose increments are a whole byte (4 channels), and
# whose matrices sum the entries of two or three tables of up to 4 channels.
MANY_CHANNELS = [(2, 4), (3, 5), (2, 9)]
# None keeps the module's budget: one block for the whole run. The others
# force, on 24 trajectories, blocks of 32 ops, the shortest, so that every
# run of more than 32 ops crosses a block edge; and, where an op's tables
# are small (one-step ops), blocks of 64 or 128 ops and of 64 to 256 ops
# that end mid-run.
DEFAULT_BLOCK_BYTES = qsd.BLOCK_BYTES
BUDGETS = [None, 1, 60_000, 100_000]


# --- reference loops: per-step kernels and the jump law step by step ------


def _two_point(words: np.ndarray, dt: float) -> np.ndarray:
    """Every increment of a trajectory's raw words, decoded bit pair by bit
    pair: increment j is bits 2 (j mod 32) and 2 (j mod 32) + 1 of word
    j // 32, the low bit the sign of its real part and the high bit that of
    its imaginary part, times sqrt(dt/2)."""
    pairs = (words[:, np.newaxis] >> np.arange(0, 64, 2, dtype=np.uint64)) & np.uint64(3)
    pairs = pairs.ravel().astype(int)
    return math.sqrt(dt / 2.0) * (1 - 2 * (pairs & 1) + 1j * (1 - (pairs & 2)))


def _sweep(model, shift_sets):
    """The model at each shift set, None for none, lowered as one sweep at
    the model's strength."""
    zero = ShiftSet.constants([0.0] * len(model.lindblads))
    sets = [zero if s is None else s for s in shift_sets]
    return lower_sweep(model, [model.strength] * len(sets), *stack_shifts(sets))


def _chunk(job) -> tuple[np.ndarray, np.ndarray]:
    """`_QSDKernel.chunk` of a (model, shift sets, ...) job: the kernel takes
    the shift sets as the points of one sweep (`_sweep`)."""
    model, shift_sets, vec, total_time, delta_t, streams = job
    kernel = _QSDKernel(_sweep(model, shift_sets), total_time, grid_steps(total_time, delta_t)[0])
    return kernel.chunk(vec, streams)


def _reference_qsd_chunk(args) -> tuple:
    """The per-step QSD chunk: each trajectory's final overlap (0 once it
    overflowed), whether it did not overflow, and the step after which it
    overflowed (-1 if never)."""
    model, shifts, vec, total_time, delta_t, streams = args
    steps, dt = grid_steps(total_time, delta_t)
    lowered = lower_model(model, shifts)
    lam = model.strength
    count = len(streams)
    dim = vec.shape[0]
    channels = len(model.lindblads)

    words = -(-steps * channels // 32)
    dws = np.stack(
        [
            _two_point(np.random.default_rng(s).bit_generator.random_raw(words), dt)
            for s in streams
        ]
    )[:, : steps * channels].reshape(count, steps, channels)

    cells = lowered.grid.step_cells(total_time, steps).tolist()
    mats = [
        (np.eye(dim) + dt * (-1j * k_tilde), [np.sqrt(lam) * l for l in channels])
        for k_tilde, channels in zip(lowered.k_tilde[0], lowered.channels[0])
    ]

    states = np.tile(vec, (count, 1))
    alive = np.ones(count, dtype=bool)
    blown_at = np.full(count, -1)
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

    return states @ vec.conj(), alive, blown_at


def _exact_overlap_moments(model, shifts, vec, total_time, delta_t) -> tuple:
    """Per-step recursions of the QSD estimator's moments: E phi' = M E phi
    and E[phi phi^dag]' = M P M^dag + lam dt sum_m L_m P L_m^dag, with
    M = I - i dt K_tilde (the noise has mean zero and E[dw dw*] = dt).
    Returns E<phi_0|phi_k> at every step and E|<phi_0|phi_T>|^2."""
    steps, dt = grid_steps(total_time, delta_t)
    lowered = lower_model(model, shifts)
    cells = lowered.grid.step_cells(total_time, steps).tolist()
    mean = vec.copy()
    second = np.outer(vec, vec.conj())
    means = [vec.conj() @ mean]
    for k in range(steps):
        drift = np.eye(len(vec)) - 1j * dt * lowered.k_tilde[0, cells[k]]
        mean = drift @ mean
        second = drift @ second @ drift.conj().T + model.strength * dt * sum(
            l @ second @ l.conj().T for l in lowered.channels[0, cells[k]]
        )
        means.append(vec.conj() @ mean)
    return np.array(means), float((vec.conj() @ second @ vec).real)


def _reference_step_terms(model, shifts, total_time, steps) -> list[tuple]:
    lowered = lower_model(model, shifts)
    _, maps, runs = step_propagators(lowered.grid, lowered.k_tilde[0], total_time, steps)
    keys = [key for a, b, key in runs for _ in range(a, b)]
    cells = lowered.grid.step_cells(total_time, steps).tolist()
    return [(maps[k], lowered.channels[0, c]) for k, c in zip(keys, cells)]


def _reference_jump_law(model, shifts, vec, total_time, delta_t, rngs) -> tuple:
    """The waiting-time jump law step by step, one trajectory after another.

    Trajectory n reads a pair (r, u) from rngs[n] at the start and after
    every jump. Over step k, psi~ <- U_k psi~; if ||psi~||^2 falls below r,
    the trajectory jumps instead: channel m, chosen by u with probability
    proportional to ||L_m psi~_k||^2, acts on psi~_k (a state every channel
    annihilates takes the no-jump step without a jump). Returns the
    normalized grid states (N, steps + 1, d), the events (n, k, m), and
    the StepSizeError text of the earliest jump whose total probability
    exceeds 1 (the largest total at that step), or None.
    """
    steps, dt = grid_steps(total_time, delta_t)
    terms = _reference_step_terms(model, shifts, total_time, steps)
    lam_dt = model.strength * dt
    paths = np.empty((len(rngs), steps + 1, vec.shape[0]), dtype=complex)
    events, refused = [], []
    for n, rng in enumerate(rngs):
        x = vec.copy()
        paths[n, 0] = x
        r, u = rng.random(2)
        for k, (step_map, channels) in enumerate(terms):
            y = step_map @ x
            if np.vdot(y, y).real >= r:
                x = y
                paths[n, k + 1] = x / np.linalg.norm(x)
                continue
            amps = [l @ x for l in channels]
            rates = [np.vdot(a, a).real for a in amps]
            rate = sum(rates)
            if rate > 0:
                m = int(np.sum(np.cumsum(rates) <= u * rate))
                events.append((n, k, m))
                refused.append((k, -lam_dt * rate / np.vdot(x, x).real))
                y = amps[m]
            x = y / np.linalg.norm(y)
            paths[n, k + 1] = x
            r, u = rng.random(2)
    refused = [e for e in refused if -e[1] > 1.0]
    message = None
    if refused:
        k, total = min(refused)
        message = f"total jump probability {-total:g} exceeds 1 at step {k}; reduce delta_t"
    return paths, events, message


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


def _model_job(dim: int, count: int, strength: float, seed: int) -> tuple:
    """A random model, shifts and state, the head of an ensemble chunk job."""
    rng = np.random.default_rng(seed)
    model = _random_model(dim, count, strength, rng)
    shifts = _random_shifts(count, rng)
    return model, shifts, _random_state(dim, rng), CELLS * CELL, 1e-2


def _job(dim: int, count: int, strength: float, trajectories: int, seed: int):
    """A QSD chunk job: a random model and the streams of its trajectories."""
    head = _model_job(dim, count, strength, seed)
    return head + (trajectory_seeds(seed, trajectories),)


def _relative_gap(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _trajectory_gap(got, want) -> float:
    """Largest difference of two arrays of per-trajectory values, each
    relative to its own reference value; 0 where both are equal (0 for an
    excluded trajectory), inf where only the reference is 0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.abs(got - want) / np.abs(want)
    return float(np.max(np.where(got == want, 0.0, gaps), initial=0.0))


@pytest.fixture(params=BUDGETS, ids=["budget", "one-step", "few-steps", "many-steps"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(qsd, "BLOCK_BYTES", request.param)
    return request.param


def _assert_budget_free(job, finals, alive, monkeypatch) -> None:
    """The finals and masks of _chunk(job) under the patched budget are
    those under the module's own, byte for byte."""
    with monkeypatch.context() as m:
        m.setattr(qsd, "BLOCK_BYTES", DEFAULT_BLOCK_BYTES)
        want_finals, want_alive = _chunk(job)
    assert finals.tobytes() == want_finals.tobytes()
    assert alive.tobytes() == want_alive.tobytes()


# --- QSD --------------------------------------------------------------------


@pytest.mark.parametrize("dim,count", SIZES + MANY_CHANNELS)
def test_qsd_chunk_matches_reference_loop(dim: int, count: int, budget, monkeypatch) -> None:
    args = _job(dim, count, 0.4, 24, 300 + 10 * dim + count)
    job = (args[0], [args[1]], *args[2:])
    finals, masks = _chunk(job)
    (final,), (alive,) = finals, masks
    want, want_alive, _ = _reference_qsd_chunk(args)
    assert alive.all() and want_alive.all() and alive.shape == (24,)
    assert _trajectory_gap(final, want) <= 1e-12
    _assert_budget_free(job, finals, masks, monkeypatch)


@pytest.mark.parametrize("dim,count", SIZES)
def test_qsd_branch_follows_the_exact_mean_path(dim: int, count: int) -> None:
    model, shifts, vec, total_time, delta_t, _ = _job(dim, count, 0.4, 0, 800 + 10 * dim + count)
    config = QSDConfig(total_time, delta_t, 400, seed=dim + 10 * count)
    res = averaged_geometric_phase(model, vec, config, shifts)
    means, second = _exact_overlap_moments(model, shifts, vec, total_time, delta_t)
    exact_se = math.sqrt((second - abs(means[-1]) ** 2) / res.n_used)
    assert abs(res.mean_overlap - means[-1]) <= 5 * exact_se
    # The sampled SE estimates the exact one. For a circular Gaussian z its
    # relative spread at 400 trajectories is 1 / (2 sqrt(400)) = 2.5%; the
    # bound, fixed before the first run, leaves room for heavier tails.
    assert abs(res.std_error / exact_se - 1.0) <= 0.25
    steps, _ = grid_steps(total_time, delta_t)
    exact_arg = float(np.sum(np.angle(means[1:] * means[:-1].conj())))
    got_arg = _mean_path_arg(lower_model(model, shifts), 0, vec, total_time, steps)
    assert abs(got_arg - exact_arg) <= 1e-9
    # The branch of arg mean_overlap nearest the exact path's argument.
    assert abs(wrap_phase(res.overlap_arg - np.angle(res.mean_overlap))) <= 1e-12
    assert abs(res.overlap_arg - exact_arg) <= math.pi


def test_mean_path_memory_does_not_grow_with_steps() -> None:
    # A million steps in one cell: their states and path values together
    # took 69 MiB; the run is taken in windows that stay within the budget.
    lowered = lower_model(dephasing_model(1.0, 0.1))
    vec = _random_state(2, np.random.default_rng(2))
    tracemalloc.start()
    try:
        _mean_path_arg(lowered, 0, vec, 1e3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < qsd.BLOCK_BYTES


def _renormalized_path_arg(drift: np.ndarray, vec: np.ndarray, steps: int) -> float:
    """Argument of <vec|M^k vec> summed step by step, the state scaled back
    to unit norm after every step (d = 2, in Python complex arithmetic)."""
    (m00, m01), (m10, m11) = drift.tolist()
    b0, b1 = (complex(v) for v in vec.conj())
    x0, x1 = (complex(v) for v in vec)
    prev = b0 * x0 + b1 * x1
    increments = []
    for _ in range(steps):
        x0, x1 = m00 * x0 + m01 * x1, m10 * x0 + m11 * x1
        z = b0 * x0 + b1 * x1
        increments.append(cmath.phase(z * prev.conjugate()))
        scale = 1.0 / math.hypot(abs(x0), abs(x1))
        x0, x1, prev = x0 * scale, x1 * scale, z * scale
    return math.fsum(increments)


def test_mean_path_of_a_non_normal_drift_stays_finite() -> None:
    # The drift map's spectral radius is 0.99764 of its spectral norm, so a
    # path scaled by the norm falls below the smallest double near T = 3000
    # and its argument stops turning.
    rng = np.random.default_rng(3)
    model = _random_model(2, 2, 0.4, rng)
    vec = _random_state(2, rng)
    lowered = lower_model(model)
    dt, steps = 1e-2, 320_000
    drift = np.eye(2) - 1j * dt * lowered.k_tilde[0, 0]
    assert np.abs(np.linalg.eigvals(drift)).max() < 0.998 * np.linalg.norm(drift, 2)
    got = _mean_path_arg(lowered, 0, vec, steps * dt, steps)
    assert abs(got - _renormalized_path_arg(drift, vec, steps)) <= 1e-9


@pytest.mark.parametrize("cap", [None, 5])
def test_qsd_excludes_the_same_trajectories(cap, monkeypatch) -> None:
    # lambda = 60 overflows about half of the trajectories by T = 23. A
    # two-point increment bounds a step's growth on both sides, so the
    # overflows come within a few steps of each other, after about 230.
    model = dephasing_model(1.0, 60.0)
    vec = np.asarray(EQUATOR.amplitudes)
    seeds = trajectory_seeds(0, 16)
    if cap is not None:
        # One-trajectory chunks in noise blocks of 32 ops of 6 steps, a
        # qubit's op on one channel, the last op of 2; at most cap ops run
        # unscreened before `safe_ops` counts again.
        monkeypatch.setattr(qsd, "BLOCK_BYTES", 1)
        safe_ops = _QSDKernel.safe_ops
        monkeypatch.setattr(
            _QSDKernel, "safe_ops", lambda self, start, ops: min(cap, safe_ops(self, start, ops))
        )
        kernel = _QSDKernel(lower_model(model), 23.0, 230)
        kernel.start(vec, 1)
        assert (kernel.span, kernel.block) == (6, 32)
        assert 0 < kernel.safe_ops(np.ones((2, 1, 1), complex), kernel.ops) == cap
    got = [int(not _chunk((model, [None], vec, 23.0, 0.1, [s]))[1][0, 0]) for s in seeds]
    want, want_alive, blown_at = _reference_qsd_chunk((model, None, vec, 23.0, 0.1, seeds))
    assert got == (blown_at >= 0).astype(int).tolist()
    assert 0 < sum(got) < 16
    # Some overflow falls strictly inside an op, and some past op 32, in the
    # second block where blocks are of 32 ops.
    ends = blown_at[blown_at >= 0] + 1
    assert np.any(ends % 6 != 0) and np.any(ends > 6 * 32)
    (final,), (alive,) = _chunk((model, [None], vec, 23.0, 0.1, seeds))
    assert alive.tolist() == want_alive.tolist()
    assert _trajectory_gap(final, want) <= 1e-12


def test_qsd_overflow_screen_keeps_the_per_step_rule() -> None:
    # Columns: fine; nan after the op; norm exactly at the threshold with
    # every entry below it; a start past the threshold, which the op's steps
    # keep there although the state after it is fine; inf after the op.
    lowered = lower_model(dephasing_model(1.0, 0.1))
    vec = np.array([1.0, 0.0], dtype=complex)
    kernel = _QSDKernel(lowered, 2.0, 20)
    kernel.start(vec, 5)
    # An op's (d, P, N) states before and after it, as the kernel holds them.
    pair = kernel.states
    pair[...] = 1.0
    pair[1, 0, 0, 1] = np.nan
    pair[1, :, 0, 2] = NORM_OVERFLOW / math.sqrt(2.0)
    pair[0, 1, 0, 3] = 1e150
    pair[1, 0, 0, 4] = np.inf
    assert np.linalg.norm(pair[1, :, 0, 2]) >= NORM_OVERFLOW
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.screen(pair, np.zeros((1, 5), dtype=np.intp), kernel.pieces[0])
    assert kernel.alive[0].tolist() == [True, False, False, False, False]
    # Excluded trajectories restart from zero at the next op.
    assert np.all(pair[1, :, 0, 1:] == 0.0)
    assert np.all(pair[1, :, 0, 0] == 1.0)


def test_qsd_screen_steps_inside_every_op() -> None:
    # H = 0 and L = [[0, 1], [0, 0]] at lambda dt = 4: the step matrix of bit
    # pair q is M_q = [[1, b_q], [0, -1]] with |b_q| = 2, b_0 = -b_3, and
    # M_q M_q is the identity. Every op below is the identity, so the states
    # after each six-step op stay below the threshold, and only stepping
    # the ops again finds the spikes inside them. Column 1, from (0, v),
    # repeats pair 3 (symbol 4095): (b v, -v) at the first step passes the
    # threshold. Column 2, from a state whose parts pass even the screen
    # for single steps, takes pairs 3, 0, 0, 3, 0, 0 (symbol 195): (2 b v, v)
    # at the second step passes it. From these starts `safe_ops` counts no
    # op, so each of the four ops is screened.
    dt = 0.1
    lower = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    model = LindbladModel(Operator(np.zeros((2, 2))), (lower,), 4.0 / dt)
    vec = np.array([1.0, 0.0], dtype=complex)
    kernel = _QSDKernel(lower_model(model), 24 * dt, 24)
    kernel.start(vec, 3)
    assert (kernel.ops, kernel.span) == (4, 6)
    step = [np.array([[1.0, 2.0 * dw / math.sqrt(dt)], [0.0, -1.0]]) for dw in kernel.increments]
    spike = np.array([0.0, 5e99], dtype=complex)
    quiet = np.array([0.0, 2.45e99], dtype=complex)
    assert np.linalg.norm(step[3] @ spike) >= NORM_OVERFLOW
    assert np.max(np.abs(quiet)) < NORM_OVERFLOW / 4
    assert np.linalg.norm(step[0] @ step[3] @ quiet) >= NORM_OVERFLOW
    symbols = np.zeros((4, 1, 3), dtype=np.intp)
    symbols[:, 0, 0] = [0, 1755, 2340, 4095]
    symbols[:, 0, 1] = 4095
    symbols[:, 0, 2] = 195
    for v in np.unique(symbols):
        op = np.eye(2)
        for t in range(6):
            op = step[v >> 2 * t & 3] @ op
        assert np.allclose(op, np.eye(2), rtol=0, atol=1e-15)
    kernel.states[0, :, 0] = np.stack([vec, spike, quiet], axis=1)
    assert kernel.safe_ops(kernel.states[0], 4) == 0
    kernel.advance(symbols, 0)
    assert kernel.alive[0].tolist() == [True, False, False]
    # After an even number of ops the last states are back in states[0].
    final = kernel.states[0, :, 0]
    assert np.all(final[:, 1:] == 0.0)
    assert np.allclose(final[:, 0], vec, rtol=1e-15, atol=0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 3),
    st.sampled_from([0.4, 6.0, 60.0]),
    st.floats(-20.0, 100.5),
    st.integers(0, 2**32 - 1),
)
def test_qsd_safe_ops_never_allow_an_overflow(
    dim: int, count: int, strength: float, scale: float, seed: int
) -> None:
    # From a random start whose largest real or imaginary part is 10^scale,
    # no step of the ops that `safe_ops` counts reaches NORM_OVERFLOW in
    # the per-step reference, even where every step takes, column by
    # column, the increments that grow the norm the most. One op more and
    # the bound would fail, unless the count reached the ops asked for.
    rng = np.random.default_rng(seed)
    model = _random_model(dim, count, strength, rng)
    dt, steps, columns = 0.1, 600, 8
    kernel = _QSDKernel(lower_model(model), steps * dt, steps)
    start = rng.normal(size=(dim, 1, columns)) + 1j * rng.normal(size=(dim, 1, columns))
    start *= 10.0**scale / np.abs(start.view(float)).max()
    ops = kernel.safe_ops(start, kernel.ops)
    mats = _one_step_matrices(model, None, dt)
    x = start[:, 0].T
    for _ in range(ops * kernel.span):
        # (N, 4^C, d): each column after each choice of increments.
        candidates = np.einsum("qij,nj->nqi", mats, x)
        norms = np.linalg.norm(candidates, axis=-1)
        assert np.all(norms < NORM_OVERFLOW)
        x = candidates[np.arange(columns), norms.argmax(axis=1)]
    if ops < kernel.ops:
        log_peak = math.log(np.abs(start.view(float)).max())
        bound = log_peak + (ops + 1) * kernel.span * kernel.log_growth
        assert bound >= math.log(NORM_OVERFLOW / math.sqrt(2 * dim)) - 1e-9
    # Nothing safe from a state that is not finite; zero states are safe.
    for bad in (np.nan, np.inf):
        assert kernel.safe_ops(np.full_like(start, bad), kernel.ops) == 0
    assert kernel.safe_ops(np.zeros_like(start), 3) == 3


def _check_points_against_reference(model, shift_sets, vec, total_time, delta_t, seeds):
    """One batched chunk over shift_sets against the per-point reference
    loop and against one-point chunks; returns each point's overflow steps."""
    tail = (vec, total_time, delta_t, seeds)
    finals, alive = _chunk((model, shift_sets, *tail))
    assert finals.shape == alive.shape == (len(shift_sets), len(seeds))
    blown_at = []
    for shifts, final, kept in zip(shift_sets, finals, alive):
        want, want_alive, blown = _reference_qsd_chunk((model, shifts, *tail))
        assert kept.tolist() == want_alive.tolist()
        assert _trajectory_gap(final, want) <= 1e-12
        # The other points change nothing, not even roundoff.
        (final_alone,), (kept_alone,) = _chunk((model, [shifts], *tail))
        assert final.tobytes() == final_alone.tobytes()
        assert kept.tobytes() == kept_alone.tobytes()
        blown_at.append(blown)
    return blown_at


@pytest.mark.parametrize("block_bytes", [None, 40_000], ids=["budget", "few-steps"])
@pytest.mark.parametrize("dim,count", SIZES)
def test_qsd_points_in_one_pass_match_reference_loop(
    dim: int, count: int, block_bytes, monkeypatch
) -> None:
    if block_bytes is not None:
        monkeypatch.setattr(qsd, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(600 + 10 * dim + count)
    model = _random_model(dim, count, 0.4, rng)
    constant = ShiftSet.constants(list(rng.normal(size=count) + 1j * rng.normal(size=count)))
    shift_sets = [None, constant, _random_shifts(count, rng)]
    vec = _random_state(dim, rng)
    seeds = trajectory_seeds(700 + dim, 24)
    _check_points_against_reference(model, shift_sets, vec, CELLS * CELL, 1e-2, seeds)
    job = (model, shift_sets, vec, CELLS * CELL, 1e-2, seeds)
    _assert_budget_free(job, *_chunk(job), monkeypatch)


def _one_step_matrices(model, shifts, dt: float, cell: int = 0) -> np.ndarray:
    """The (4^C, d, d) matrices I - i dt K_tilde + sum_m dw_m sqrt(lam) L_m
    of a cell of a model, entry q taking its increment for channel m from
    bit pair m of q, built from the lowered model one channel at a time."""
    lowered = lower_model(model, shifts)
    k_tilde, channels = lowered.k_tilde[0, cell], lowered.channels[0, cell]
    count = len(channels)
    digits = (np.arange(4**count)[:, np.newaxis] >> 2 * np.arange(count)) & 3
    incs = math.sqrt(dt / 2.0) * (1 - 2 * (digits & 1) + 1j * (1 - (digits & 2)))
    mats = np.array([np.eye(len(k_tilde)) - 1j * dt * k_tilde] * 4**count)
    for m, l in enumerate(channels):
        mats += incs[:, m, np.newaxis, np.newaxis] * (math.sqrt(model.strength) * l)
    return mats


# Steps per op of (d, C) models: the most whose per-point table of 4^(kC)
# d x d complex entries fits qsd.TABLE_BYTES, 256 KiB, and at least 4 // C.
# A qubit's op on one channel takes 6 steps, a 12-bit symbol; at d = 16 the
# table of 4 // C = 4 steps is larger than the budget.
SPANS = {(2, 1): 6, (3, 1): 5, (2, 2): 3, (4, 2): 2, (2, 3): 2, (3, 3): 1, (16, 1): 4, (2, 5): 1}


@pytest.mark.parametrize("dim,count", [(2, 1), (3, 1), (2, 2), (4, 2), (2, 3), (3, 3)])
def test_qsd_table_entry_is_the_product_of_its_steps(dim: int, count: int) -> None:
    # Symbol v of an op of k steps holds M_(q_(k-1)) ... M_(q_0), step t
    # taking the C bit pairs of v from pair t C on, M of the step's own
    # cell, and the identity for the steps of a short op past the grid.
    # Cases: an op inside one cell; an op across the edge of a 3-cell shift
    # at step 49, inside an op of 2, 3, 5 or 6 steps; a last op of 2 steps;
    # and a last op of one step, whose entries are its one-step matrices.
    rng = np.random.default_rng(70 + 10 * dim + count)
    model = _random_model(dim, count, 0.4, rng)
    constant = ShiftSet.constants(list(rng.normal(size=count) + 1j * rng.normal(size=count)))
    vec = _random_state(dim, rng)
    piecewise = _random_shifts(count, rng)
    span = SPANS[dim, count]
    for case in ["run", "edge"] + ["one-step"] * (span > 1) + ["short"] * (span > 2):
        steps = {"run": 60, "edge": 3 * 49, "short": 10 * span + 2, "one-step": 10 * span + 1}[case]
        total = CELLS * CELL if case == "edge" else steps * 1e-2
        shifts = piecewise if case == "edge" else constant
        lowered = lower_model(model, shifts)
        kernel = _QSDKernel(lowered, total, steps)
        kernel.start(vec, 3)
        # The first step of the op holding step 0, step 49 or the last step.
        first = {"run": 0, "edge": 49}.get(case, steps - 1) // span * span
        piece = kernel.piece_starts.index(first // span)
        cells = lowered.grid.step_cells(total, steps).tolist()[first : first + span]
        # The piece's cells are its first op's steps' cells; a step past the
        # grid takes the identity, cell -1.
        got_cells = kernel.pieces[piece].tolist()
        assert kernel.span == span and got_cells == cells + [-1] * (span - len(cells))
        if case == "run":
            assert kernel.piece_starts == [0]
        else:
            # An op of one step never straddles an edge; its piece runs on.
            assert span == 1 or kernel.lengths[piece] == 1
            assert len(set(cells)) == 1 + (case == "edge" and span > 1)
            assert len(cells) == {"short": 2, "one-step": 1}.get(case, span)
        table, extra = kernel._table(piece)
        entries = 4 ** (span * count)
        assert extra == () and table.shape == (dim, dim, 1, entries)
        assert entries * dim * dim * 16 <= qsd.TABLE_BYTES < 4**count * table.nbytes
        got = table[:, :, 0].transpose(2, 1, 0)
        v = np.arange(entries)
        mats = [_one_step_matrices(model, shifts, total / steps, cell) for cell in cells]
        if case == "one-step":
            # Products with the identity are exact.
            assert np.array_equal(got, mats[0][v & (4**count - 1)])
        want = np.broadcast_to(np.eye(dim), (entries, dim, dim))
        for t, step in enumerate(mats):
            want = step[(v >> 2 * count * t) & (4**count - 1)] @ want
        # The table multiplies the products of the first k // 2 steps and
        # of the rest, the reference one step after another: each of the k
        # products of d terms rounds by about d ulps.
        bound = span * dim * np.finfo(float).eps * np.max(np.abs(want), axis=(1, 2))
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= bound)


@pytest.mark.parametrize("dim,count", [(2, 1), (3, 1), (16, 1), (2, 2), (2, 3), (2, 5)])
def test_qsd_op_span_depends_on_dim_and_channels_only(dim: int, count: int) -> None:
    # A span that followed the points or the chunk would change a point's
    # arithmetic with the sweep it runs in and with the chunk size.
    rng = np.random.default_rng(90 + 10 * dim + count)
    model = _random_model(dim, count, 0.4, rng)
    # The kernel is planned before any chunk, so it cannot follow the chunk.
    for npoints in (1, 2, 5):
        sweep = _sweep(model, [ShiftSet.constants([0.1 * p] * count) for p in range(npoints)])
        assert _QSDKernel(sweep, 0.6, 60).span == SPANS[dim, count]


@pytest.mark.parametrize("count", [1, 2])
def test_qsd_op_across_a_cell_edge_keeps_points_apart(count: int) -> None:
    # Cells of 0.52 on a grid of 1e-2: the piecewise point's runs start at
    # steps 52 and 104, inside ops of 6 steps (one channel) and of 3 (two
    # channels); the last op of 151 steps has 1. Both points run in one
    # sweep, the constant one on the piecewise grid, and each keeps the bytes
    # of its one-point kernel.
    rng = np.random.default_rng(60 + count)
    model = _random_model(2, count, 0.4, rng)
    piecewise = ShiftSet(
        tuple(
            ScalarSchedule.piecewise(0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3)), 0.52)
            for _ in range(count)
        )
    )
    constant = ShiftSet.constants(list(rng.normal(size=count) + 1j * rng.normal(size=count)))
    vec = _random_state(2, rng)
    kernel = _QSDKernel(_sweep(model, [piecewise, constant]), 1.51, 151)
    span = kernel.span
    assert span == 6 // count
    # The op holding each edge step is a piece of one op, its steps in two
    # cells, and so is the short last op; the runs between them share a
    # table. Each piece differs in the cell at some step from the pieces
    # beside it, so it takes a table of its own.
    edges = [kernel.piece_starts.index(edge // span) for edge in (52, 104)]
    assert edges == [1, 3] and 52 % span and 104 % span
    assert [kernel.lengths[piece] for piece in (1, 3, 5)] == [1, 1, 1]
    # Each piece's cells, the identity past the grid's end (-1) left out.
    cells = [set(piece.tolist()) - {-1} for piece in kernel.pieces]
    assert [len(c) for c in cells] == [1, 2, 1, 2, 1, 1]
    assert np.count_nonzero(kernel.pieces[5] >= 0) == 151 % span
    assert all(not np.array_equal(a, b) for a, b in zip(kernel.pieces, kernel.pieces[1:]))
    seeds = trajectory_seeds(80 + count, 24)
    _check_points_against_reference(model, [piecewise, constant], vec, 1.51, 1e-2, seeds)


def _unitary_channel_model(dim: int, count: int, strength: float, rng) -> LindbladModel:
    """Random Hamiltonian and unitary channels (sum_m L_m^dag L_m = count I):
    at a large strength every trajectory grows at about the same rate, so
    which ones pass NORM_OVERFLOW by a given step is up to the noise."""

    def matrix() -> np.ndarray:
        return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim

    h = matrix()
    channels = tuple(Operator(np.linalg.qr(matrix())[0]) for _ in range(count))
    return LindbladModel(Operator(h + h.conj().T), channels, strength)


@pytest.mark.parametrize("dim,count", SIZES)
def test_qsd_overflow_inside_a_ring_segment(dim: int, count: int, monkeypatch) -> None:
    rng = np.random.default_rng(900 + 10 * dim + count)
    model = _unitary_channel_model(dim, count, 60.0 / count, rng)
    vec = _random_state(dim, rng)
    seeds = trajectory_seeds(dim + count, 16)
    delta_t = 0.1
    # Overflows bunch in time; end the run at the median overflow step of a
    # longer run (a prefix of it: the same draws), so that about half of
    # the trajectories overflow.
    longer = _reference_qsd_chunk((model, None, vec, 400 * delta_t, delta_t, seeds))[2]
    steps = int(np.sort(longer)[len(seeds) // 2])
    job = (model, None, vec, steps * delta_t, delta_t, seeds)
    want, want_alive, blown_at = _reference_qsd_chunk(job)
    assert 0 < (~want_alive).sum() < len(seeds)

    # Noise blocks of 32 ops, shorter than the run.
    monkeypatch.setattr(qsd, "BLOCK_BYTES", 1)
    lowered = lower_model(model)
    kernel = _QSDKernel(lowered, steps * delta_t, steps)
    kernel.start(vec, len(seeds))
    assert kernel.block == 32 < kernel.ops
    # Some overflow falls strictly inside an op, where an op has several
    # steps, and some in a later block than the first.
    ends = blown_at[blown_at >= 0] + 1
    assert kernel.span == 1 or np.any(ends % kernel.span != 0)
    assert np.any(ends > 32 * kernel.span)
    finals, masks = _chunk((model, [None], *job[2:]))
    (final,), (alive,) = finals, masks
    assert alive.tolist() == want_alive.tolist()
    assert _trajectory_gap(final, want) <= 1e-12
    _assert_budget_free((model, [None], *job[2:]), finals, masks, monkeypatch)
    _, alive = _QSDKernel(lowered, steps * delta_t, steps).chunk(vec, seeds)
    assert alive[0].tolist() == (blown_at < 0).tolist()


def test_qsd_point_overflow_stays_in_its_point(monkeypatch) -> None:
    # lambda = 60 with L = identity: unshifted, the Euler factor 1 - 3 and
    # strong noise overflow about half of the trajectories by step 233; at
    # f = 1 the shifted channel vanishes and nothing overflows. Ops of 6
    # steps in noise blocks of 32 ops put overflows inside ops and in the
    # second block.
    model = LindbladModel(0.5 * pauli("z"), (Operator(np.eye(2)),), 60.0)
    vec = np.asarray(EQUATOR.amplitudes)
    monkeypatch.setattr(qsd, "BLOCK_BYTES", 1)
    shift_sets = [None, ShiftSet.constants([1.0]), ShiftSet.constants([0.1])]
    kernel = _QSDKernel(_sweep(model, shift_sets), 23.3, 233)
    kernel.start(vec, 16)
    assert (kernel.block, kernel.span) == (32, 6)
    blown_at = _check_points_against_reference(
        model, shift_sets, vec, 23.3, 0.1, trajectory_seeds(0, 16)
    )
    overflowed = blown_at[0][blown_at[0] >= 0]
    assert 0 < len(overflowed) < 16
    assert np.any((overflowed + 1) % 6 != 0) and np.any(overflowed >= 6 * 32)
    assert np.all(blown_at[1] < 0)


def _excluding_fields(chunk: int) -> bytes:
    """Every field of the results of the lambda = 60 dephasing qubit of
    `test_qsd_excludes_the_same_trajectories` over 300 trajectories in
    chunks of the given size: at f = 0 some trajectories overflow, at
    f = 0.5 all of them. Which ops are screened follows the peak over a
    chunk's trajectories; which trajectories are excluded must not."""
    config = QSDConfig(23.0, 0.1, 300, seed=0)
    shift_sets = [None, ShiftSet.constants([0.5])]
    with pytest.warns(RuntimeWarning, match="excluded"):
        results = averaged_geometric_phases(
            dephasing_model(1.0, 60.0), EQUATOR, config, shift_sets, chunk_size=chunk
        )
    assert 0 < results[0].n_used < 300 and results[1].n_used == 0
    return np.array([dataclasses.astuple(r) for r in results], dtype=complex).tobytes()


def test_qsd_ensemble_invariant_to_threads_and_chunks(monkeypatch) -> None:
    rng = np.random.default_rng(5)
    model = _random_model(3, 2, 0.4, rng)
    shifts = _random_shifts(2, rng)
    vec = _random_state(3, rng)
    config = QSDConfig(CELLS * CELL, 1e-2, 48, seed=8)

    def run(chunk: int) -> tuple:
        res = averaged_geometric_phase(model, vec, config, shifts, chunk_size=chunk)
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
    excluding = set()
    for threads, chunk in itertools.product(("1", "2"), (300, 7, 1)):
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        excluding.add(_excluding_fields(chunk))
    assert len(excluding) == 1


def test_qsd_ensemble_is_byte_identical_across_chunk_sizes() -> None:
    # Every step and the final overlap are elementwise over the trajectories,
    # so no chunk size changes a trajectory's rounding.
    rng = np.random.default_rng(5)
    model = _random_model(3, 2, 0.4, rng)
    shift_sets = [_random_shifts(2, rng), None]
    vec = _random_state(3, rng)
    config = QSDConfig(CELLS * CELL, 1e-2, 300, seed=8)
    outs = []
    for chunk in (300, 100, 7, 1):
        results = averaged_geometric_phases(model, vec, config, shift_sets, chunk_size=chunk)
        fields = [(r.mean_overlap, r.std_error, r.overlap_arg, r.phase) for r in results]
        outs.append(np.array(fields).tobytes())
    assert outs[1:] == outs[:1] * 3
    # Every field, n_used and n_excluded included, where trajectories overflow.
    excluding = [_excluding_fields(chunk) for chunk in (300, 7, 1)]
    assert excluding[1:] == excluding[:1] * 2


def test_qsd_pass_plans_one_kernel(monkeypatch) -> None:
    # A pass runs one lowered sweep, and every chunk job carries its one
    # kernel, in the worker processes too, whatever the chunk size. Two
    # plain points around a piecewise one are two groups of
    # `lindblad.lower_points`, so two passes: one kernel of the two plain
    # points, then one of the piecewise point.
    built = []
    init = _QSDKernel.__init__

    def counted(self, *args) -> None:
        built.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(_QSDKernel, "__init__", counted)
    rng = np.random.default_rng(17)
    model = _random_model(2, 1, 0.4, rng)
    vec = _random_state(2, rng)
    shift_sets = [None, _random_shifts(1, rng), None]
    config = QSDConfig(CELLS * CELL, 1e-2, 20, seed=6)
    outs = set()
    for threads, chunk in itertools.product(("1", "2"), (1, 7, 300)):
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        built.clear()
        results = averaged_geometric_phases(model, vec, config, shift_sets, chunk_size=chunk)
        assert built == [2, 1]
        outs.add(np.array([dataclasses.astuple(r) for r in results], dtype=complex).tobytes())
    assert len(outs) == 1


def test_qsd_kernel_runs_chunks_in_turn_as_fresh_kernels() -> None:
    # The first chunk ends holding the table of the last piece; the second,
    # of another size, starts from the first piece, and takes nothing of the
    # first chunk.
    rng = np.random.default_rng(19)
    model = _random_model(2, 1, 0.4, rng)
    sweep = _sweep(model, [_random_shifts(1, rng), None])
    vec = _random_state(2, rng)
    steps = grid_steps(CELLS * CELL, 1e-2)[0]
    seeds = trajectory_seeds(9, 29)
    kernel = _QSDKernel(sweep, CELLS * CELL, steps)
    assert len(kernel.lengths) > 2
    for part in (seeds[:24], seeds[24:]):
        got = kernel.chunk(vec, part)
        want = _QSDKernel(sweep, CELLS * CELL, steps).chunk(vec, part)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


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
    # A block of 256 trajectories holds 4864 ops of 6 steps, 29184 steps;
    # a shorter run takes a shorter block. Past one block, memory stays.
    short = _qsd_peak_bytes(30.0)
    long = _qsd_peak_bytes(60.0)
    # Noise for the short run alone is 256 x 30000 x 16 B = 123 MB; the long
    # run would need twice that if memory followed the step count.
    assert long <= 1.1 * short + 2**20


def _chunk_peak_bytes(kernel, vec) -> int:
    tracemalloc.start()
    try:
        kernel.chunk(vec, trajectory_seeds(3, 512))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim,count", [(2, 1), (3, 2)])
def test_qsd_chunk_stays_within_its_block_budget(dim: int, count: int) -> None:
    # Two points of 512 trajectories. Over 15000 steps the pair of states,
    # the table and one block of raw words and their decoded symbols fill
    # the budget. A run of 300 steps is shorter than a block: its buffers
    # hold its ops rounded up to 32, no more.
    rng = np.random.default_rng(40 + dim)
    model = _random_model(dim, count, 0.4, rng)
    vec = _random_state(dim, rng)
    sweep = _sweep(model, [None, ShiftSet.constants([0.5] * count)])
    long = _QSDKernel(sweep, 15.0, 15000)
    assert qsd.BLOCK_BYTES // 2 < _chunk_peak_bytes(long, vec) <= qsd.BLOCK_BYTES + 2**20
    short = _QSDKernel(sweep, 0.3, 300)
    peak = _chunk_peak_bytes(short, vec)
    ops = 32 * -(-short.ops // 32)
    assert short.block == ops < long.block
    # Per trajectory and 32 ops: the words, twice, the symbols and the bit
    # fields (see qsd.BLOCK_BYTES).
    blocks = 512 * ops // 32 * (16 * short.width + 256 * short.groups + 64)
    held = short.states.nbytes + short.gathered.nbytes + short.table_bytes
    assert peak <= held + blocks + 2**20 < qsd.BLOCK_BYTES // 2


# --- jumps ------------------------------------------------------------------


@pytest.fixture(params=[None, 1, 3], ids=["budget", "one-step", "few-steps"])
def pair_block(request, monkeypatch):
    """None keeps the module's PAIR_BLOCK; the others draw one and three
    (r, u) pairs per generator call, so refills fall between jumps. The ids
    are those of the step blocks the per-step jump kernel was tested in."""
    if request.param is not None:
        monkeypatch.setattr(jump, "PAIR_BLOCK", request.param)
    return request.param


def _generators(seed: int, count: int) -> list:
    """The reference draws: NumPy's own Generators of the first count
    children of SeedSequence(seed), which the chunks' PCG64 rows must
    reproduce."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]


def _jump_job(head: tuple, seed: int, count: int) -> tuple:
    """A jump chunk job: head, its shifts replaced by the sampler of their
    lowering, and the seed words of count trajectories."""
    model, shifts, vec, total_time, delta_t = head
    steps, _ = grid_steps(total_time, delta_t)
    sampler = _JumpSampler(lower_model(model, shifts), 0, total_time, steps)
    return (model, sampler, vec, total_time, delta_t, trajectory_words(seed, count))


def _chunk_events(args) -> list:
    """(trajectory, step, channel) of every jump of a chunk's sampler run,
    in trajectory and time order."""
    _, sampler, vec, _, _, words = args
    events = []
    x = np.repeat(vec[:, np.newaxis], len(words), axis=1)
    sampler.run(x, PCG64Rows.seeded(words), events)
    return sorted(events)


@pytest.mark.parametrize("dim,count", SIZES)
def test_jump_chunk_matches_reference_loop(dim: int, count: int, pair_block) -> None:
    seed = 400 + 10 * dim + count
    head = _model_job(dim, count, 0.4, seed)
    args = _jump_job(head, seed, 40)
    x, jumps = run_chunk(args)
    paths, events, message = _reference_jump_law(*head, _generators(seed, 40))
    assert message is None
    want = np.bincount([n for n, _, _ in events], minlength=40).astype(np.int64)
    assert jumps.tobytes() == want.tobytes()
    assert jumps.max() >= 2
    assert np.array(_chunk_events(args)).tobytes() == np.array(events).tobytes()
    # Unit vectors, so each column's gap is relative to its norm.
    assert np.max(np.abs(x - paths[:, -1].T)) <= 1e-12


@pytest.mark.parametrize("dim,count", [(2, 1), (3, 2), (4, 3)])
def test_sampled_trajectory_matches_reference_loop(dim: int, count: int) -> None:
    rng = np.random.default_rng(500 + dim)
    model = _random_model(dim, count, 2.0, rng)
    shifts = _random_shifts(count, rng)
    vec = _random_state(dim, rng)
    dt = grid_steps(1.5, 1e-2)[1]
    # Under the waiting-time law rng 3 alone draws no jump at dim 2; three
    # streams together do.
    jumped = 0
    for stream in (3, 4, 5):
        record = sample_jump_trajectory(
            model, vec, 1.5, 1e-2, np.random.default_rng(stream), shifts
        )
        paths, events, message = _reference_jump_law(
            model, shifts, vec, 1.5, 1e-2, [np.random.default_rng(stream)]
        )
        assert message is None
        assert [(e.time, e.channel) for e in record.jumps] == [(k * dt, m) for _, k, m in events]
        assert np.max(np.abs(record.states - paths[0])) <= 1e-12
        jumped += len(events)
    assert jumped


def test_sampled_trajectories_are_the_ensemble_trajectories() -> None:
    rng = np.random.default_rng(8)
    model = _random_model(3, 2, 1.0, rng)
    shifts = _random_shifts(2, rng)
    vec = _random_state(3, rng)
    seeds = trajectory_seeds(11, 24)
    res = average_jump_ensemble(model, vec, CELLS * CELL, 1e-2, 24, 11, shifts, chunk_size=10)
    events = _chunk_events(_jump_job((model, shifts, vec, CELLS * CELL, 1e-2), 11, 24))
    dt = grid_steps(CELLS * CELL, 1e-2)[1]
    for i, stream in enumerate(seeds):
        record = sample_jump_trajectory(
            model, vec, CELLS * CELL, 1e-2, np.random.default_rng(stream), shifts
        )
        assert len(record.jumps) == res.jump_counts[i]
        want = [(k * dt, m) for n, k, m in events if n == i]
        assert [(e.time, e.channel) for e in record.jumps] == want
    assert res.jump_counts.sum() > 24


def test_sampled_trajectory_forms_no_square_the_sampler_did_not(monkeypatch) -> None:
    # The grid states between jumps are filled from the sampler's own
    # ladder: a trajectory with many jumps (the dephasing qubit, 48 jumps)
    # and one on three cells of a random model form exactly the levels the
    # sampler's own run forms, each one stacked product over its keys.
    formed = []
    square = MapPowers.square

    def counted(self, level: int) -> np.ndarray:
        before = len(self.squares)
        out = square(self, level)
        formed.append(len(self.squares) - before)
        return out

    monkeypatch.setattr(MapPowers, "square", counted)
    rng = np.random.default_rng(8)
    model = _random_model(3, 2, 2.0, rng)
    cases = [
        (dephasing_model(1.0, 2.0), None, np.array([1.0, 1.0j]) / np.sqrt(2.0), 20.0, 1e-3),
        (model, _random_shifts(2, rng), _random_state(3, rng), CELLS * CELL, 1e-3),
    ]
    for model, shifts, vec, total_time, delta_t in cases:
        steps = grid_steps(total_time, delta_t)[0]
        sampler = _JumpSampler(lower_model(model, shifts), 0, total_time, steps)
        formed.clear()
        sampler.run(vec[:, np.newaxis].copy(), PCG64Rows.of(np.random.default_rng(1)))
        by_sampler = sum(formed)
        formed.clear()
        record = sample_jump_trajectory(
            model, vec, total_time, delta_t, np.random.default_rng(1), shifts
        )
        assert sum(formed) == by_sampler, (len(record.jumps), by_sampler)
        assert len(record.jumps) >= 4


def _step_size_messages(head: tuple, seed: int, count: int) -> tuple[str, str]:
    with pytest.raises(StepSizeError) as got:
        run_chunk(_jump_job(head, seed, count))
    _, _, want = _reference_jump_law(*head, _generators(seed, count))
    return str(got.value), want


def test_step_size_error_keeps_message_and_step(pair_block) -> None:
    vec = np.asarray(EQUATOR.amplitudes)
    # A shift so large that the first step already fails.
    strong = (dephasing_model(1.0, 1.0), ShiftSet.constants([30.0]), vec, 0.5, 1e-2)
    got, want = _step_size_messages(strong, 0, 4)
    assert got == want
    assert "at step 0;" in got
    # A channel that only becomes strong in the last of three cells, so the
    # failure comes mid-run, after jumps in the first cell.
    zero = Operator(np.zeros((2, 2)))
    channel = OperatorSchedule.piecewise([0.3 * pauli("x"), zero, 6 * pauli("z")], 0.5)
    model = LindbladModel(OperatorSchedule.constant(pauli("z")), (channel,), 3.0)
    got, want = _step_size_messages((model, None, vec, 1.5, 1e-2), 2, 8)
    assert got == want
    assert "at step 100;" in got
    # A qubit driven into a strongly monitored level: a second jump can be
    # refused at an earlier step than any first jump, so the sampler sweeps
    # the whole run before it names the earliest refused step.
    model = LindbladModel(30 * pauli("x"), (Operator(np.diag([0.0, 1.0])),), 15.0)
    pole = np.array([1.0, 0.0], dtype=complex)
    for seed in range(12):
        got, want = _step_size_messages((model, None, pole, 2.0, 0.1), seed, 8)
        assert got == want


def test_a_state_no_channel_acts_on_steps_on_without_a_jump() -> None:
    # L = |0><1| annihilates |0>, where every jump lands, but H turns |0>
    # towards |1> within a step, so the no-jump norm can fall below r over a
    # step that starts at |0>: such a trajectory takes the no-jump step.
    model = LindbladModel(pauli("x"), (Operator(np.array([[0.0, 1.0], [0.0, 0.0]])),), 1.0)
    head = (model, None, np.array([1.0, 0.0], dtype=complex), 5.0, 0.5)
    args = _jump_job(head, 3, 40)
    paths, events, message = _reference_jump_law(*head, _generators(3, 40))
    assert message is None
    x, jumps = run_chunk(args)
    assert np.array(_chunk_events(args)).tobytes() == np.array(events).tobytes()
    assert jumps.sum() == len(events)
    assert np.max(np.abs(x - paths[:, -1].T)) <= 1e-12


@pytest.mark.parametrize("dim,count", SIZES)
def test_jump_law_matches_the_master_equation(dim: int, count: int) -> None:
    # 1400 steps over three cells of 0.5: every cell edge falls inside a step.
    rng = np.random.default_rng(900 + 10 * dim + count)
    model = _random_model(dim, count, 0.4, rng)
    shifts = _random_shifts(count, rng)
    vec = _random_state(dim, rng)
    total, steps, fine = CELLS * CELL, 1400, 2**14
    res = average_jump_ensemble(model, vec, total, total / steps, 2000, dim + 10 * count, shifts)
    lowered = lower_model(model, shifts)
    _, (rhos,) = evolve_states(lowered, DensityMatrix.from_pure(vec), total, fine)
    assert np.all(np.abs(res.estimates[-1] - rhos[-1]) <= 5 * res.std_error[-1] + 1e-12)
    # E[jumps] = strength * integral of sum_m Tr[(L_m - f_m)^dag (L_m - f_m) rho] dt,
    # by the midpoint rule on each step of the fine grid.
    weights = np.array([sum(l.conj().T @ l for l in chans) for chans in lowered.channels[0]])
    mids = 0.5 * (rhos[1:] + rhos[:-1])
    rates = np.einsum("kij,kji->k", weights[lowered.grid.step_cells(total, fine)], mids).real
    exact = model.strength * float(np.sum(rates)) * total / fine
    assert abs(res.mean_jumps - exact) <= 5 * res.mean_jumps_error


def _jump_chunk_peak_bytes(total_time: float) -> int:
    rng = np.random.default_rng(9)
    model = _random_model(4, 2, 0.4, rng)
    args = _jump_job((model, None, _random_state(4, rng), total_time, 1e-3), 1, 256)
    tracemalloc.start()
    try:
        run_chunk(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jump_chunk_working_memory_does_not_grow_with_total_time() -> None:
    # A first call also allocates what NumPy builds lazily on first use.
    _jump_chunk_peak_bytes(0.1)
    short = _jump_chunk_peak_bytes(4.0)
    long = _jump_chunk_peak_bytes(16.0)
    # Sums of the 16 projector entries at every grid point (complex, and the
    # squared real and imaginary parts: 512 B a point) would alone take 6 MB
    # more in the long run.
    assert long <= 1.1 * short + 2**20


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


def test_jump_ensemble_exponentiates_its_cells_once(monkeypatch) -> None:
    # Three chunks of one sampler: the stack of its keys' maps is formed
    # once, by the exponential `step_propagators` calls, from the one cell
    # of the constant schedule.
    calls = []
    exponential = operators.matrix_exponential
    monkeypatch.setattr(
        operators, "matrix_exponential", lambda a: calls.append(len(a)) or exponential(a)
    )
    model = dephasing_model(1.0, 0.5)
    res = average_jump_ensemble(model, EQUATOR, 0.5, 1e-2, 6000, seed=2, chunk_size=2048)
    assert calls == [1] and res.jump_counts.shape == (6000,)


# --- both ensembles ---------------------------------------------------------


@pytest.mark.parametrize("chunk_size", [0, -4])
def test_ensembles_refuse_a_chunk_size_below_one(chunk_size: int) -> None:
    # Once an all-NaN QSD row, a TypeError or "range() arg 3 must not be zero".
    model = dephasing_model(1.0, 0.1)
    config = QSDConfig(0.5, 1e-2, 8, seed=0)
    with pytest.raises(ValueError, match="chunk_size"):
        averaged_geometric_phases(model, EQUATOR, config, [None], chunk_size=chunk_size)
    with pytest.raises(ValueError, match="chunk_size"):
        averaged_geometric_phase(model, EQUATOR, config, chunk_size=chunk_size)
    with pytest.raises(ValueError, match="chunk_size"):
        average_jump_ensemble(model, EQUATOR, 0.5, 1e-2, 8, seed=0, chunk_size=chunk_size)


def test_ensembles_refuse_a_state_of_another_dimension() -> None:
    # Once a NumPy broadcast or matmul error from deep inside a chunk.
    model = dephasing_model(1.0, 0.1)
    state = np.array([1.0, 0.0, 0.0], dtype=complex)
    match = "state dimension 3 differs from the model's 2"
    with pytest.raises(ValueError, match=match):
        averaged_geometric_phases(model, state, QSDConfig(0.5, 1e-2, 8, seed=0), [None])
    with pytest.raises(ValueError, match=match):
        average_jump_ensemble(model, state, 0.5, 1e-2, 8, seed=0)
    with pytest.raises(ValueError, match=match):
        sample_jump_trajectory(model, state, 0.5, 1e-2, np.random.default_rng(0))


def test_mean_and_error_matches_numpy() -> None:
    rng = np.random.default_rng(13)
    stack = rng.normal(size=(3, 3, 501)) + 1j * rng.normal(size=(3, 3, 501))
    counts = rng.poisson(2.5, size=501)
    for samples in (stack, counts):
        want_mean = np.mean(samples, axis=-1)
        want_error = np.std(samples, axis=-1, ddof=1) / math.sqrt(samples.shape[-1])
        mean, error = mean_and_error(samples.copy())
        assert _relative_gap(mean, want_mean) <= 1e-12
        assert _relative_gap(error, want_error) <= 1e-12
    # One sample has no spread to estimate.
    for one in (np.array([[2.5 + 1j]]), np.array([7])):
        mean, error = mean_and_error(one.copy())
        assert np.array_equal(mean, one[..., 0]) and error.shape == one.shape[:-1]
        assert not np.any(error)


def test_mean_and_error_keeps_a_small_spread_about_a_large_mean() -> None:
    # E[x^2] - E[x]^2 from raw sums is 1e16 less 1e16: its rounding, about
    # 2, swamps the variance of 1e-8.
    rng = np.random.default_rng(14)
    samples = 1e8 + 1e-4 * rng.normal(size=1000)
    # Differences of nearby doubles are exact.
    want = np.std(samples - 1e8, ddof=1) / math.sqrt(samples.size)
    mean, error = mean_and_error(samples.copy())
    assert abs(error - want) <= 1e-6 * want
    assert abs(mean - np.mean(samples)) <= 1e-15 * 1e8


def test_mean_and_error_works_in_place() -> None:
    # The deviations overwrite the samples: no (d, d, n) temporary.
    stack = np.ones((4, 4, 20_000), dtype=complex)
    tracemalloc.start()
    try:
        mean_and_error(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stack.nbytes // 16
