"""Linear diffusive unraveling and its averaged geometric phase."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import scipy.integrate

import trajphase.qsd as qsd
from trajphase._ensemble import grid_steps, trajectory_seeds
from trajphase.dephasing import (
    DephasingParams,
    closed_form_dynamical_phase,
    closed_form_overlap_phase,
    dephasing_model,
)
from trajphase.lindblad import (
    DensityMatrix,
    LindbladModel,
    ShiftSet,
    energy_integral,
    evolve_states,
    lower_model,
)
from trajphase.operators import (
    BlochAngles,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    ScheduleRangeError,
    bloch_state,
    pauli,
    wrap_phase,
)
from trajphase.qsd import (
    QSDConfig,
    QSDEnsembleResult,
    _mean_path_arg,
    _QSDKernel,
    averaged_geometric_phase,
    averaged_geometric_phases,
    averaged_overlap,
)

EQUATOR = bloch_state(BlochAngles(math.pi / 2, 0.0))


def _mean_overlap_exact(p: DephasingParams, t: float) -> complex:
    # E[phi(t)] follows the drift alone; the overlap mean is
    # e^{-(strength/2)(1+f^2) t} (c^2 e^{(f strength - i omega/2) t}
    #                            + s^2 e^{-(f strength - i omega/2) t}).
    c2 = math.cos(0.5 * p.theta0) ** 2
    s2 = math.sin(0.5 * p.theta0) ** 2
    mu = (p.shift * p.strength - 0.5j * p.omega) * t
    damp = math.exp(-0.5 * p.strength * (1.0 + p.shift**2) * t)
    return damp * (c2 * np.exp(mu) + s2 * np.exp(-mu))


def test_config_validation() -> None:
    with pytest.raises(ValueError, match="n_trajectories"):
        QSDConfig(1.0, 1e-2, 0, seed=0)
    with pytest.raises(ValueError, match="delta_t"):
        QSDConfig(1.0, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        QSDConfig(1e-3, 1e-2, 10, seed=0)


def _kernel(model, dt, count, shifts=None) -> _QSDKernel:
    """The QSD kernel of one step of width dt, set up for a chunk of `count`
    trajectories."""
    kernel = _QSDKernel(lower_model(model, shifts), dt, 1)
    kernel.start(EQUATOR.amplitudes, count)
    return kernel


def _two_point(words: np.ndarray, dt: float) -> np.ndarray:
    """Every increment of a trajectory's raw words, decoded bit pair by bit
    pair: increment j is bits 2 (j mod 32) and 2 (j mod 32) + 1 of word
    j // 32, the low bit the sign of its real part and the high bit that of
    its imaginary part, times sqrt(dt/2)."""
    pairs = (words[:, np.newaxis] >> np.arange(0, 64, 2, dtype=np.uint64)) & np.uint64(3)
    pairs = pairs.ravel().astype(int)
    return math.sqrt(dt / 2.0) * (1 - 2 * (pairs & 1) + 1j * (1 - (pairs & 2)))


def _symbols(rng, count) -> np.ndarray:
    """One op's (1, 1, count) symbols, a byte of the words of rng each."""
    words = rng.bit_generator.random_raw(-(-count // 8))
    return words.view(np.uint8)[:count].astype(np.intp).reshape(1, 1, count)


def _step(kernel, x, symbols) -> np.ndarray:
    """The (d, N) states x after the one step of a one-step kernel with the
    (1, 1, N) symbols: a column's increment is its symbol's low bit pair."""
    kernel.states[0, :, 0] = x
    kernel.advance(symbols, 0)
    return kernel.states[1, :, 0].copy()


def _columns(vec, count) -> np.ndarray:
    return np.repeat(np.asarray(vec, dtype=complex)[:, np.newaxis], count, axis=1)


def test_wiener_increment_moments() -> None:
    # The four equally likely increments sqrt(dt/2) (+-1 +- i) have the
    # Wiener moments the estimator depends on, exactly.
    dt = 1e-2
    table = _kernel(dephasing_model(1.0, 0.5), dt, 1).increments
    scale = math.sqrt(dt / 2.0)
    assert sorted(table.tolist(), key=lambda z: (z.real, z.imag)) == [
        scale * complex(a, b) for a in (-1, 1) for b in (-1, 1)
    ]
    assert abs(table.mean()) <= 1e-15 * math.sqrt(dt)
    assert abs(np.mean(np.abs(table) ** 2) - dt) <= 1e-15 * dt
    assert abs(np.mean(table**2)) <= 1e-15 * dt
    with pytest.raises(ValueError, match="delta_t"):
        grid_steps(1.0, 0.0)


# Steps per op, k, of a (d, C) model: every op width 2 kC the rule gives,
# 12 bits (three sizes), 10, 8 (four) and 6, and one-step ops of 2 and 3
# groups of up to 4 channels. d = 16 takes the fewest steps the rule
# allows, 4 // C. A qubit's case is named by C alone.
OP_SPANS = {
    (2, 1): 6, (3, 1): 5, (8, 1): 4, (16, 1): 4, (2, 2): 3, (3, 2): 2,
    (2, 3): 2, (3, 3): 1, (2, 4): 1, (2, 5): 1, (2, 9): 1,
}


@pytest.mark.parametrize(
    "dim,channels", OP_SPANS, ids=[f"{c}" if d == 2 else f"{d}-{c}" for d, c in OP_SPANS]
)
def test_increments_are_the_bit_pairs_of_each_stream(
    dim: int, channels: int, monkeypatch
) -> None:
    # Blocks of 32 ops over 75: the symbols cross two block edges, and the
    # last block, of an odd number of ops, reads part of its last word. Ops
    # of more than one step leave the last op short by span // 2 steps.
    hop = Operator(np.roll(np.eye(dim), 1, axis=0))
    model = LindbladModel(Operator(np.diag(np.arange(dim))), (hop,) * channels, 0.5)
    vec = np.eye(dim, dtype=complex)[0]
    span = OP_SPANS[dim, channels]
    dt, steps, count = 1e-2, 75 * span - span // 2, 5
    monkeypatch.setattr(qsd, "BLOCK_BYTES", 1)
    kernel = _QSDKernel(lower_model(model), steps * dt, steps)
    blocks = []
    monkeypatch.setattr(kernel, "advance", lambda symbols, first: blocks.append(symbols.copy()))
    streams = trajectory_seeds(4, count)
    kernel.chunk(vec, streams)
    assert (kernel.span, kernel.ops, kernel.block) == (span, 75, 32)
    got = np.concatenate(blocks)
    assert [len(b) for b in blocks] == [32, 32, 11]
    groups = -(-channels // 4)
    assert got.shape == (75, groups, count)
    # Op o's symbol of each group: its increments, from increment o k C
    # (group g from 4 g more) as the base-4 digits of a number, the first
    # increment lowest.
    width = span * channels
    for i, stream in enumerate(streams):
        words = np.random.default_rng(stream).bit_generator.random_raw(-(-75 * width // 32))
        incs = _two_point(words, dt)[: 75 * width].reshape(75, width)
        digits = ((incs.real < 0) + 2 * (incs.imag < 0)).astype(int)
        for g in range(groups):
            group = digits[:, 4 * g : 4 * g + 4] if groups > 1 else digits
            assert np.array_equal(got[:, g, i], group @ 4 ** np.arange(group.shape[1]))


def test_qsd_step_deterministic_part() -> None:
    # Dephasing by sigma_z: sigma_z^dag sigma_z = I, so the drift is
    # 1 - dt (i H + strength / 2).
    # Symbols 0 and 3 take opposite increments, so their mean is the drift.
    p = DephasingParams(1.0, 0.5, 0.0, math.pi / 2)
    dt = 1e-3
    opposite = np.array([0, 3]).reshape(1, 1, 2)
    out = _step(_kernel(p.as_model(), dt, 2), _columns(EQUATOR.amplitudes, 2), opposite)
    h = np.diag([0.5, -0.5])
    want = EQUATOR.amplitudes - dt * (1j * h @ EQUATOR.amplitudes + 0.25 * EQUATOR.amplitudes)
    assert np.max(np.abs(out.mean(axis=1) - want)) < 1e-15


def test_qsd_step_is_linear() -> None:
    p = DephasingParams(1.0, 0.4, 0.3, math.pi / 3)
    kernel = _kernel(p.as_model(), 1e-2, 2, p.as_shifts())
    symbols = np.repeat(_symbols(np.random.default_rng(2), 1), 2, axis=-1)
    x = np.stack([EQUATOR.amplitudes, 0.7j * EQUATOR.amplitudes], axis=1)
    out = _step(kernel, x, symbols)
    assert np.max(np.abs(out[:, 1] - 0.7j * out[:, 0])) < 1e-15


def test_qsd_step_mean_follows_drift() -> None:
    # Averaging the stochastic step over many draws recovers the Euler
    # drift step to Monte Carlo accuracy.
    p = DephasingParams(1.0, 0.5, 0.0, math.pi / 2)
    dt, n = 1e-2, 40000
    kernel = _kernel(p.as_model(), dt, n)
    symbols = _symbols(np.random.default_rng(4), n)
    out = _step(kernel, _columns(EQUATOR.amplitudes, n), symbols)
    opposite = np.array([0, 3]).reshape(1, 1, 2)
    drift = _step(_kernel(p.as_model(), dt, 2), _columns(EQUATOR.amplitudes, 2), opposite)
    drift = drift.mean(axis=1, keepdims=True)
    noise_scale = math.sqrt(p.strength * dt / n)
    assert np.max(np.abs(out.mean(axis=1) - drift[:, 0])) < 4 * noise_scale


def test_averaged_overlap_matches_exact_mean() -> None:
    p = DephasingParams(1.0, 0.1, 1.0, math.pi / 2)
    t = math.pi / 2
    with pytest.warns(RuntimeWarning, match="adjusted"):
        cfg = QSDConfig(t, 1e-3, 2000, seed=12)
        got, se = averaged_overlap(p.as_model(), EQUATOR, cfg, shifts=p.as_shifts())
    want = _mean_overlap_exact(p, t)
    assert abs(got - want) < 3 * se
    assert se < 0.03


def test_averaged_phase_matches_closed_forms() -> None:
    p = DephasingParams(1.0, 0.1, 0.5, math.pi / 3)
    t = math.pi / 2
    with pytest.warns(RuntimeWarning, match="adjusted"):
        cfg = QSDConfig(t, 1e-3, 3000, seed=21)
        res = averaged_geometric_phase(
            p.as_model(), bloch_state(p.initial_state()), cfg, shifts=p.as_shifts()
        )
    assert res.n_used == 3000
    assert res.n_excluded == 0
    assert res.phase == pytest.approx(res.overlap_arg + res.dynamical_term)
    assert res.dynamical_term == pytest.approx(
        closed_form_dynamical_phase(p, t), abs=1e-6
    )
    want_arg = closed_form_overlap_phase(p, t)
    assert abs(wrap_phase(res.overlap_arg - want_arg)) < 3 * res.phase_std_error


def test_averaged_phase_tracks_through_multiple_periods() -> None:
    # After a full period the raw argument folds to +pi; the branch must
    # continue to about -pi for a mostly-north initial state.
    p = DephasingParams(1.0, 0.05, 0.0, math.pi / 3)
    # 2e-3 does not divide 2 pi; the grid snaps and says so.
    with pytest.warns(RuntimeWarning, match="adjusted"):
        cfg = QSDConfig(2 * math.pi, 2e-3, 1500, seed=6)
        res = averaged_geometric_phase(p.as_model(), bloch_state(p.initial_state()), cfg)
    want = closed_form_overlap_phase(p, 2 * math.pi)
    assert want == pytest.approx(-math.pi, abs=1e-12)
    assert abs(res.overlap_arg - want) < 3 * res.phase_std_error
    assert res.overlap_arg < 0.0


def test_long_run_checkpoints_follow_the_dynamics() -> None:
    # 66 periods at lambda = 0: unwrapping through 64 fixed checkpoints
    # turned the overlap by more than pi per interval and came out 64 * 2 pi
    # too high; the branch now follows the exact mean path step by step.
    p = DephasingParams(1.0, 0.0, 0.0, 0.3)
    total = 66 * 2 * math.pi
    with pytest.warns(RuntimeWarning, match="adjusted"):
        cfg = QSDConfig(total, 1e-2, 1, seed=0)
    started = time.perf_counter()
    res = averaged_geometric_phase(p.as_model(), bloch_state(p.initial_state()), cfg)
    elapsed = time.perf_counter() - started
    want = closed_form_overlap_phase(p, total) + closed_form_dynamical_phase(p, total)
    assert abs(res.phase - want) <= 1e-2
    assert elapsed < 1.0


def test_mean_path_argument_does_not_underflow() -> None:
    # On the Euler grid the mean overlap is c^2 a^k + s^2 conj(a)^k with
    # a = 1 - (strength/2 + i omega/2) dt; |a|^k falls below the smallest
    # double before T = 400, so an unscaled path underflows to 0 and its
    # argument stops near -185.30.
    p = DephasingParams(1.0, 4.0, 0.0, math.pi / 3)
    vec = np.asarray(bloch_state(p.initial_state()).amplitudes)
    got = _mean_path_arg(lower_model(p.as_model()), 0, vec, 400.0, 40_000)
    assert got == pytest.approx(-204.1414548973610, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 7])
def test_branch_of_a_mean_through_zero_follows_the_exact_path(seed: int) -> None:
    # At theta0 = pi/2 and f = 0 the mean overlap is proportional to
    # cos(omega t / 2), which passes zero at t = pi; sampled means near
    # there picked the branch by noise, +3.118 and +3.154 at these seeds
    # against the closed form -pi.
    p = DephasingParams(1.0, 0.1, 0.0, math.pi / 2)
    total = 2 * math.pi
    with pytest.warns(RuntimeWarning, match="adjusted"):
        cfg = QSDConfig(total, 1e-3, 256, seed=seed)
    (res,) = averaged_geometric_phases(p.as_model(), EQUATOR, cfg, [ShiftSet.constants([0.0])])
    want = closed_form_overlap_phase(p, total) + closed_form_dynamical_phase(p, total)
    assert want == pytest.approx(-math.pi, abs=1e-12)
    assert abs(res.phase - want) <= 5 * res.phase_std_error
    assert abs(wrap_phase(res.overlap_arg - np.angle(res.mean_overlap))) <= 1e-12


def test_phase_std_error_of_zero_overlap() -> None:
    res = QSDEnsembleResult(0j, 0.1, 0.0, 0.0, 0.0, 10, 0)
    assert res.phase_std_error == float("inf")
    finite = QSDEnsembleResult(0.5 + 0j, 0.1, 0.0, 0.0, 0.0, 10, 0)
    assert finite.phase_std_error == pytest.approx(0.2)


def test_requires_normalized_initial_state() -> None:
    p = DephasingParams(1.0, 0.1, 0.0, math.pi / 2)
    cfg = QSDConfig(1.0, 1e-2, 4, seed=0)
    with pytest.raises(ValueError, match="normalized"):
        averaged_overlap(p.as_model(), np.array([2.0, 0.0]), cfg)


def test_overflowing_trajectories_are_excluded_with_warning() -> None:
    p = DephasingParams(1.0, 60.0, 0.0, math.pi / 2)
    cfg = QSDConfig(23.0, 0.1, 16, seed=0)
    with pytest.warns(RuntimeWarning, match="excluded"):
        got, _ = averaged_overlap(p.as_model(), EQUATOR, cfg)
    assert np.isfinite(got.real) and np.isfinite(got.imag)


def test_screen_runs_only_where_a_state_can_overflow(monkeypatch) -> None:
    # The qsd-phase benchmark scenario: lambda 0.1, f = 0 and 1, T = 2 pi on
    # 6283 steps, 256 trajectories. A one-step matrix grows a norm by at
    # most g = 1.014, and g^6283 is about 1e38, so no state can reach
    # NORM_OVERFLOW and no op is screened. Screening every op, where
    # `safe_ops` counts none, changes no byte of the output.
    p = DephasingParams(1.0, 0.1, 0.0, math.pi / 2)
    with pytest.warns(RuntimeWarning, match="adjusted"):
        config = QSDConfig(2 * math.pi, 1e-3, 256, seed=0)
    screened = []
    screen = _QSDKernel.screen
    monkeypatch.setattr(
        _QSDKernel, "screen", lambda self, *args: screened.append(1) or screen(self, *args)
    )

    def run() -> bytes:
        shift_sets = [None, ShiftSet.constants([1.0])]
        results = averaged_geometric_phases(p.as_model(), EQUATOR, config, shift_sets)
        fields = [(r.mean_overlap, r.std_error, r.overlap_arg, r.phase) for r in results]
        return np.array(fields).tobytes()

    gated = run()
    assert screened == []
    monkeypatch.setattr(_QSDKernel, "safe_ops", lambda self, start, ops: 0)
    assert run() == gated
    # One chunk holds both points: each of its ops of 6 steps is screened.
    assert len(screened) == -(-6283 // 6)


def test_total_overflow_raises() -> None:
    p = DephasingParams(1.0, 100.0, 0.0, math.pi / 2)
    cfg = QSDConfig(20.0, 0.1, 8, seed=3)
    with pytest.warns(RuntimeWarning, match="excluded"):
        with pytest.raises(RuntimeError, match="overflowed"):
            averaged_overlap(p.as_model(), EQUATOR, cfg)


def test_ensemble_deterministic_across_thread_counts(monkeypatch) -> None:
    p = DephasingParams(1.0, 0.1, 1.0, math.pi / 2)
    cfg = QSDConfig(1.0, 1e-2, 96, seed=9)
    outs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        outs.append(
            averaged_overlap(p.as_model(), EQUATOR, cfg, shifts=p.as_shifts(), chunk_size=24)
        )
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


@pytest.mark.parametrize("count", [16, 33, 100])
def test_channel_free_model_follows_the_euler_drift(count: int) -> None:
    # With no channels there is no noise: every trajectory is the drift
    # path (I - i dt H)^n phi0, so the sample has no spread. 16 equal
    # overlaps sum exactly, which makes the standard error exactly 0; 33
    # and 100 do not, and E|z|^2 - |E z|^2 from raw sums cancelled to a
    # standard error of 2e-9 and 1e-9 there.
    h = 0.5 * pauli("z") + 0.3 * pauli("x")
    model = LindbladModel(h, (), 0.5)
    phi0 = bloch_state(BlochAngles(math.pi / 3, 0.2))
    dt, steps = 1e-2, 200
    res = averaged_geometric_phase(model, phi0, QSDConfig(steps * dt, dt, count, seed=3))
    assert (res.n_used, res.n_excluded) == (count, 0)
    assert res.std_error <= (0.0 if count == 16 else 1e-15)
    vec = np.asarray(phi0.amplitudes)
    drift = np.eye(2) - 1j * dt * h.entries
    want = vec.conj() @ np.linalg.matrix_power(drift, steps) @ vec
    assert abs(res.mean_overlap - want) <= 1e-12


def test_shift_changes_trajectories_not_mean() -> None:
    # Hidden or not, the ensemble mean of the overlap obeys the drift of the
    # shifted model; for the dephasing channel a real shift leaves the
    # master equation unchanged but not E[<phi0|phi>] itself.
    p0 = DephasingParams(1.0, 0.2, 0.0, math.pi / 2)
    p1 = DephasingParams(1.0, 0.2, 1.0, math.pi / 2)
    t = 1.0
    cfg = QSDConfig(t, 1e-3, 1500, seed=14)
    got0, se0 = averaged_overlap(p0.as_model(), EQUATOR, cfg)
    got1, se1 = averaged_overlap(p1.as_model(), EQUATOR, cfg, shifts=p1.as_shifts())
    assert abs(got0 - _mean_overlap_exact(p0, t)) < 3 * se0
    assert abs(got1 - _mean_overlap_exact(p1, t)) < 3 * se1
    assert abs(got0 - got1) > 5 * max(se0, se1)


# --- the exact dynamical term -----------------------------------------------

SIZES = [(2, 1), (2, 3), (3, 2), (4, 1), (4, 3)]
PER_CELL = 2**14


def _random_model(dim: int, count: int, rng) -> LindbladModel:
    def matrix() -> np.ndarray:
        return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim

    h = matrix()
    channels = tuple(Operator(matrix()) for _ in range(count))
    return LindbladModel(Operator(h + h.conj().T), channels, 0.4)


def _random_state(dim: int, rng) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def _per_cell_simpson(lowered, vec, total: float, cell: float) -> float:
    """Simpson's rule of Tr[rho K] on each cell's span [c cell, (c + 1) cell]
    of [0, total] separately, PER_CELL steps to a whole cell, rho from
    `evolve_states` on a grid whose nodes include every cell edge."""
    steps = round(total / cell * PER_CELL)
    _, (rhos,) = evolve_states(lowered, DensityMatrix.from_pure(vec), total, steps)
    dt = total / steps
    out = 0.0
    for a in range(0, steps, PER_CELL):
        b = min(a + PER_CELL, steps)
        k = lowered.k[0, lowered.grid.value_at(0.5 * (a + b) * dt)]
        out += scipy.integrate.simpson(np.einsum("nij,ji->n", rhos[a : b + 1], k).real, dx=dt)
    return out


def _grid_simpson(lowered, vec, total: float, steps: int = 2048) -> float:
    """Simpson's rule of Tr[rho K] straight across [0, total] on `steps` steps."""
    times, (rhos,) = evolve_states(lowered, DensityMatrix.from_pure(vec), total, steps)
    ks = lowered.k[0][lowered.grid.cells_at(times)]
    return scipy.integrate.simpson(np.einsum("nij,nji->n", rhos, ks).real, dx=total / steps)


@pytest.mark.parametrize("dim,count", SIZES)
def test_dynamical_term_is_the_per_cell_integral(dim: int, count: int) -> None:
    # Three cells of 0.5 over T = 1.25, so the last one is cut, and 250 QSD
    # steps, so no cell edge falls on a node of the estimator's grid.
    rng = np.random.default_rng(40 + 10 * dim + count)
    model = _random_model(dim, count, rng)
    cells = [
        ScalarSchedule.piecewise(rng.normal(size=3) + 1j * rng.normal(size=3), 0.5)
        for _ in range(count)
    ]
    shift_sets = [
        ShiftSet(tuple(cells)),
        ShiftSet.constants(list(rng.normal(size=count) + 1j * rng.normal(size=count))),
        None,
    ]
    vec = _random_state(dim, rng)
    config = QSDConfig(1.25, 0.005, 2, seed=dim)
    results = averaged_geometric_phases(model, vec, config, shift_sets)
    for p, (shifts, res) in enumerate(zip(shift_sets, results)):
        lowered = lower_model(model, shifts)
        want = _per_cell_simpson(lowered, vec, 1.25, 0.5)
        assert abs(res.dynamical_term - want) <= 1e-10
        assert res.dynamical_term == energy_integral(lowered, vec, 1.25)[0]
        if p > 0:
            # A constant K: the earlier grid rule was already right.
            assert abs(res.dynamical_term - _grid_simpson(lowered, vec, 1.25)) <= 1e-10


@pytest.mark.parametrize("cells", [3, 7, 16])
def test_dynamical_term_across_jumps_of_k(cells: int) -> None:
    # The imaginary part of the shift flips sign between cells, so K jumps
    # at every edge; Simpson's rule across the edges on 2048 steps was off
    # by 2.5e-4, 7.1e-4 and 3.7e-4 here.
    model = LindbladModel(0.5 * pauli("z") + 0.3 * pauli("x"), (pauli("z"),), 0.5)
    k = np.arange(cells)
    total = 2 * math.pi
    values = 0.2 + 0.8 * k / cells + 1j * (0.9 * (k % 2) - 0.3)
    shifts = ShiftSet((ScalarSchedule.piecewise(values, total / cells),))
    vec = bloch_state(BlochAngles(math.pi / 3, 0.0)).amplitudes
    # 1000 steps: the cell edges fall inside steps of the estimator's grid.
    res = averaged_geometric_phase(model, vec, QSDConfig(total, total / 1000, 4, seed=1), shifts)
    lowered = lower_model(model, shifts)
    want = _per_cell_simpson(lowered, vec, total, total / cells)
    assert abs(res.dynamical_term - want) <= 1e-10
    assert abs(_grid_simpson(lowered, vec, total) - want) > 1e-4


def test_energy_integral_refuses_times_beyond_the_schedule() -> None:
    model = LindbladModel(pauli("z"), (pauli("x"),), 0.3)
    lowered = lower_model(model, ShiftSet((ScalarSchedule.piecewise([0.2, 0.5j], 0.5),)))
    with pytest.raises(ScheduleRangeError, match="outside"):
        energy_integral(lowered, EQUATOR.amplitudes, 1.5)
    assert energy_integral(lowered, EQUATOR.amplitudes, 0.0).tolist() == [0.0]


def test_config_refuses_a_negative_seed() -> None:
    with pytest.raises(ValueError, match="seed must be >= 0"):
        QSDConfig(1.0, 1e-2, 10, seed=-1)
