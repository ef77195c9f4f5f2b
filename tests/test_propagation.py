"""Run-based propagation against step-by-step reference loops.

`operators.MapPowers` is the power ladder of a propagation: it forms the
powers of a keyed stack of step maps by repeated squaring, all keys in one
product per level, and its `fill` advances all runs of a propagation at
once; `operators.run_windows`, `jump.propagate_no_jump` and
`lindblad.evolve_states` advance runs of steps in one cell with it.
These tests compare them with the plain per-step products they replace,
and the all-runs fill with the fill of each run alone, on
seeded random non-normal generators and on grids whose steps do not line up
with the cells.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import trajphase.jump
from trajphase._ensemble import THREADS_ENV, map_ordered
from trajphase.cli import EXIT_CONFIG, main
from trajphase import (
    BranchTrackingError,
    DensityMatrix,
    IntegrationError,
    LindbladModel,
    Operator,
    OperatorSchedule,
    TotalDecayError,
    evolve_density,
    kraus_connection_matrix,
    lindblad_rhs,
    no_jump_geometric_phase,
    no_jump_geometric_phases,
    no_jump_hamiltonian,
    pauli,
    propagate_no_jump,
)
from trajphase.lindblad import (
    POSITIVITY_HARD_TOL,
    POSITIVITY_TOL,
    ShiftSet,
    _check_states,
    _liouvillian,
    energy_integral,
    evolve_states,
    lower_model,
    lower_sweep,
)
from trajphase.jump import (
    BRANCH_EPS,
    MAX_GRID_DOUBLINGS,
    _flag_calm_steps,
    _flag_crossings,
    _turns,
    sweep_no_jump_phases,
)
from trajphase.operators import (
    MapPowers,
    ScalarSchedule,
    annihilation,
    cell_maps,
    key_runs,
    real_form,
    run_windows,
    step_propagators,
    window_parts,
    wrap_phase,
)

STATE_RTOL = 1e-12
RHO_ATOL = 1e-12
PRODUCT_RTOL = 1e-12


def _random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _no_jump_like(rng, dim):
    """Random H - (i/2) B^dag B: non-normal whenever B and H do not commute."""
    h = _random_complex(rng, dim)
    b = 0.7 * _random_complex(rng, dim)
    return 0.5 * (h + h.conj().T) - 0.5j * b.conj().T @ b


def _random_schedule(rng, dim, cells, total):
    values = [Operator(_no_jump_like(rng, dim)) for _ in range(cells)]
    if cells == 1:
        return OperatorSchedule.constant(values[0])
    return OperatorSchedule.piecewise(values, total / cells)


def _stack(sched):
    """The (C, d, d) matrices of an operator schedule, as
    `step_propagators` takes them."""
    return np.stack([op.entries for op in sched.values])


def _cell_step_maps(sched, total, steps):
    """The step maps of every cell of sched, indexed by cell, with the bits
    of `step_propagators`' maps."""
    return cell_maps(_stack(sched), range(len(sched.values)), total / steps)


def _loop_states(maps, keys, x0):
    states = [np.asarray(x0, dtype=complex)]
    for key in keys:
        states.append(maps[key] @ states[-1])
    return np.array(states)


def _run_states(powers, runs, x0):
    """The (..., n + 1, d) states of the one window of `run_windows` that
    spans the grid of runs."""
    x0 = np.asarray(x0, dtype=complex)
    [(_, out)] = run_windows(powers, runs, x0, (runs[-1][1] if runs else 0) + 1)
    return out[..., 1:].swapaxes(-1, -2)


def _relative_errors(got, want):
    return np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)


@pytest.mark.parametrize("seed", range(12))
def test_run_states_matches_step_loop(seed) -> None:
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    cells = int(rng.integers(1, 17))
    total = 2.0
    # A prime step count never lines up with the cells.
    steps = int(rng.choice([97, 211, 331]))
    sched = _random_schedule(rng, dim, cells, total)
    maps, runs = step_propagators(sched, _stack(sched), total, steps)
    x0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    got = _run_states(MapPowers(maps, steps), runs, x0)
    cells = sched.step_cells(total, steps).tolist()
    want = _loop_states(_cell_step_maps(sched, total, steps), cells, x0)
    assert got.shape == (steps + 1, dim)
    assert np.max(_relative_errors(got, want)) <= STATE_RTOL


def test_run_states_defective_map() -> None:
    # A Jordan block has no eigenbasis; powers are still plain products.
    jordan = np.array([[0.99, 1.0], [0.0, 0.99]], dtype=complex)
    rotation = scipy.linalg.expm(-0.1j * pauli("x").entries)
    keys = np.array([0] * 45 + [1] * 3 + [0] * 17)
    x0 = np.array([0.3, 1.0], dtype=complex)
    got = _run_states(MapPowers(np.stack([jordan, rotation]), len(keys)), key_runs(keys), x0)
    want = _loop_states([jordan, rotation], keys.tolist(), x0)
    assert np.max(_relative_errors(got, want)) <= STATE_RTOL


def test_run_states_without_steps() -> None:
    x0 = np.array([1.0, 2.0j])
    got = _run_states(MapPowers(np.empty((0, 2, 2), dtype=complex), 0), [], x0)
    assert np.array_equal(got, x0[np.newaxis, :])


# Around each squaring level: a run of length L fills columns a+m .. a+2m-1
# for m = 1, 2, 4, ... and then the last min(m, L - m + 1).
RUN_LENGTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65, 255, 257]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_run_states_at_run_length_edges(dim) -> None:
    rng = np.random.default_rng(40 + dim)
    maps = [scipy.linalg.expm(-0.05j * _no_jump_like(rng, dim)) for _ in range(3)]
    x0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    patterns = [[0] * n for n in RUN_LENGTHS]
    # Runs of every length between runs of other cells, and one-step runs.
    patterns.append([k % 3 for k in range(40)])
    patterns += [[1] * 3 + [0] * n + [2] * n + [1] for n in RUN_LENGTHS]
    for keys in patterns:
        got = _run_states(MapPowers(np.stack(maps), len(keys)), key_runs(keys), x0)
        assert got.shape == (len(keys) + 1, dim)
        want = _loop_states(maps, keys, x0)
        assert np.max(_relative_errors(got, want)) <= STATE_RTOL
    got = _run_states(MapPowers(np.stack(maps), 0), [], x0)
    assert got.shape == (1, dim)
    assert np.array_equal(got[0], x0)

    # The same run lengths on a keyed (K, G, d, d) stack, from column 3:
    # each key's fill of its G points against each point's own one-key
    # fill, bit for bit, and the step loop. Columns outside 3..3+n stay
    # untouched. Both ladders are given n K d steps, so neither caps its
    # depth below the run.
    keyed = np.stack([np.stack(maps), np.stack(maps[::-1])])
    starts = np.stack([x0, x0.conj(), 2j * x0])
    for n in RUN_LENGTHS:
        powers = MapPowers(keyed, 2 * n * dim)
        for key, points in enumerate(keyed):
            cols = np.full((len(maps), dim, n + 5), np.nan, dtype=complex)
            cols[:, :, 3] = starts
            powers.fill(cols, [(3, 3 + n, key)])
            assert np.isnan(cols[:, :, :3]).all() and np.isnan(cols[:, :, 4 + n :]).all()
            for g, point in enumerate(points):
                alone = np.empty((dim, n + 1), dtype=complex)
                alone[:, 0] = starts[g]
                MapPowers(point[np.newaxis], n * dim).fill(alone, [(0, n, 0)])
                got = cols[g, :, 3 : 4 + n]
                assert np.array_equal(got, alone)
                want = _loop_states([point], [0] * n, starts[g])
                assert np.max(_relative_errors(got.T, want)) <= STATE_RTOL


def _keyed_stack(rng, keys: int, points: int, dim: int) -> np.ndarray:
    """A (keys, points, dim, dim) stack of random non-normal step maps."""
    return np.array(
        [
            [scipy.linalg.expm(-0.05j * _no_jump_like(rng, dim)) for _ in range(points)]
            for _ in range(keys)
        ]
    )


def test_map_powers_equal_explicit_products() -> None:
    # Keyed stacks: a Jordan block beside a random map, a (K, d, d) stack
    # and a (K, G, d, d) one. Each key's power is its repeated product.
    rng = np.random.default_rng(60)
    jordan = np.array([[0.99, 1.0], [0.0, 0.99]], dtype=complex)
    rotation = scipy.linalg.expm(-0.1j * pauli("x").entries)
    general = _keyed_stack(rng, 3, 1, 3)[:, 0]
    for base in (np.stack([jordan, rotation]), general, _keyed_stack(rng, 3, 4, 2)):
        powers = MapPowers(base, 70)
        want = np.broadcast_to(np.eye(base.shape[-1], dtype=complex), base.shape)
        for n in range(1, 71):
            want = base @ want
            got = powers.power(n)
            assert got.shape == base.shape
            for key in range(len(base)):
                gap = np.max(np.abs(got[key] - want[key]))
                assert gap <= PRODUCT_RTOL * np.max(np.abs(want[key]))


def test_map_powers_of_a_real_form_are_the_real_forms_of_the_powers() -> None:
    # The levels, powers and fill of the float64 real form of a keyed (K,
    # G, d, d) stack stay float64 and equal the real forms of the complex
    # ones.
    rng = np.random.default_rng(61)
    stack = _keyed_stack(rng, 2, 4, 3)
    plain, real = MapPowers(stack, 70), MapPowers(real_form(stack), 70)
    for n in range(1, 71):
        got = real.power(n)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - real_form(plain.power(n)))) <= 1e-13
    assert all(square.dtype == np.float64 for square in real.squares)
    starts = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    for key in range(2):
        cols = np.zeros((4, 3, 70), dtype=complex)
        cols[:, :, 2] = starts
        plain.fill(cols, [(2, 67, key)])
        rows = np.zeros((4, 6, 70))
        rows[:, :3, 2], rows[:, 3:, 2] = starts.real, starts.imag
        real.fill(rows, [(2, 67, key)])
        assert np.max(np.abs(rows - np.concatenate([cols.real, cols.imag], axis=1))) <= 1e-13


# Run lengths of the all-runs fill tests: unequal runs, among them blocks of
# equal ones; one-step runs; empty runs at the start, inside and at the end.
# Keys cycle through a pattern with even steps, repeats and jumps.
FILL_CASES = {
    "unequal": [5, 17, 17, 17, 3, 64, 64, 64, 1, 30, 8],
    "one-step": [1] * 12,
    "empty": [0, 4, 0, 9, 9, 0],
}
FILL_KEYS = [0, 1, 2, 3, 1, 1, 1, 3, 2, 0, 2, 3]


def _fill_stack(form: str) -> tuple[np.ndarray, np.ndarray]:
    """A keyed stack of four random non-normal maps and a start column:
    complex (4, 3, 3), its `real_form` (4, 6, 6), or keyed (4, 3, 2, 2)
    with three points."""
    rng = np.random.default_rng(63)
    points = 3 if form == "keyed" else 1
    stack = _keyed_stack(rng, 4, points, 2 if form == "keyed" else 3)
    x0 = rng.normal(size=stack.shape[1:-1]) + 1j * rng.normal(size=stack.shape[1:-1])
    if form == "keyed":
        return stack, x0
    stack, x0 = stack[:, 0], x0[0]
    if form == "real":
        return real_form(stack), np.concatenate([x0.real, x0.imag])
    return stack, x0


def _tiled_runs(lengths) -> list[tuple[int, int, int]]:
    bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    pairs = enumerate(zip(bounds, bounds[1:]))
    return [(a, b, FILL_KEYS[r % len(FILL_KEYS)]) for r, (a, b) in pairs]


def _assert_fill_is_per_run_fill(powers, out, runs) -> None:
    """Every run of a filled out against a fill of that run alone from the
    same first column: bit for bit but at the carried last column of a run
    before the last non-empty one, which is bit for bit where the length is
    a power of two and within 1e-13 elsewhere."""
    runs = [run for run in runs if run[1] > run[0]]
    for r, (a, b, key) in enumerate(runs):
        alone = np.empty(out.shape[:-1] + (b - a + 1,), dtype=out.dtype)
        alone[..., 0] = out[..., a]
        powers.fill(alone, [(0, b - a, key)])
        assert np.array_equal(out[..., a + 1 : b], alone[..., 1:-1])
        if r == len(runs) - 1 or (b - a) & (b - a - 1) == 0:
            assert np.array_equal(out[..., b], alone[..., -1])
        else:
            gap = np.abs(out[..., b] - alone[..., -1]).max()
            assert gap <= 1e-13 * np.abs(alone[..., -1]).max()


def _assert_fill_is_step_loop(stack, out, runs, a0: int = 0) -> None:
    """out from column a0 on against x_{k+1} = M_key x_k, within 1e-13."""
    want = out[..., a0]
    for a, b, key in runs:
        for k in range(a, b):
            want = np.einsum("...ij,...j->...i", stack[key], want)
            got = out[..., k + 1]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("form", ["complex", "real", "keyed"])
@pytest.mark.parametrize("case", sorted(FILL_CASES))
def test_fill_of_all_runs_is_the_per_run_fill(case, form) -> None:
    # One fill of all runs against each run filled alone from the column
    # the carry gave it, and against the step loop; columns before the
    # first run's start stay untouched. Runs of power-of-two length carry
    # the bits of the doubling, so the whole fill is then the parent's
    # per-run fill, one run after another, bit for bit.
    stack, x0 = _fill_stack(form)
    runs = [(a + 2, b + 2, key) for a, b, key in _tiled_runs(FILL_CASES[case])]
    n = runs[-1][1]
    powers = MapPowers(stack, 2**20)
    out = np.full(x0.shape + (n + 1,), np.nan, dtype=stack.dtype)
    out[..., 2] = x0
    powers.fill(out, runs)
    assert np.isnan(out[..., :2]).all() and not np.isnan(out[..., 2:]).any()
    _assert_fill_is_per_run_fill(powers, out, runs)
    _assert_fill_is_step_loop(stack, out, runs, 2)

    one_by_one = out.copy()
    one_by_one[..., 3:] = np.nan
    for run in runs:
        powers.fill(one_by_one, [run])
    _assert_fill_is_step_loop(stack, one_by_one, runs, 2)
    if all((b - a) & (b - a - 1) == 0 for a, b, _ in runs):
        assert np.array_equal(one_by_one, out, equal_nan=True)


def test_fill_of_all_runs_across_windows_narrower_than_a_run() -> None:
    # As the no-jump tracker fills a (G, 2d, width + 1) window: the parts of
    # the runs in each window of 13 steps, from column 0, which holds the
    # last column of the window before. Runs of 40 steps span four windows.
    stack, x0 = _fill_stack("keyed")
    stack = real_form(stack)
    x0 = np.concatenate([x0.real, x0.imag], axis=-1)
    runs = _tiled_runs([40, 40, 40, 25, 40, 1, 7])
    powers, width = MapPowers(stack, 2**20), 13
    grid = np.empty(x0.shape + (runs[-1][1] + 1,))
    grid[..., 0] = x0
    for w, parts in enumerate(window_parts(runs, width)):
        start = w * width
        window = np.empty(x0.shape + (width + 1,))
        window[..., 0] = grid[..., start]
        local = [(a - start, b - start, key) for a, b, key in parts]
        powers.fill(window, local)
        span = parts[-1][1] - start
        grid[..., start + 1 : start + span + 1] = window[..., 1 : span + 1]
        _assert_fill_is_per_run_fill(powers, window[..., : span + 1], local)
    _assert_fill_is_step_loop(stack, grid, runs)


@pytest.mark.parametrize("width", [1, 2, 13, 40, 64, 233, 300])
def test_run_windows_continue_from_each_window(width) -> None:
    # Windows narrower than, as wide as and wider than runs of 40 steps,
    # and one window over all 233 grid columns: their columns 1.. tile the
    # grid and follow the step loop, and a window a full width into a run
    # is one product with the window before it. A caller's rescaling by a
    # power of two carries to every later window, exactly.
    stack, x0 = _fill_stack("keyed")
    runs = _tiled_runs([40, 40, 40, 25, 40, 1, 7, 39])
    cols = runs[-1][1] + 1
    grid = np.empty(x0.shape + (cols,), dtype=complex)
    scaled = np.empty_like(grid)
    for plain in (True, False):
        for w, (start, x) in enumerate(run_windows(MapPowers(stack, 2**20), runs, x0, width)):
            assert start == w * width and x.shape == x0.shape + (width + 1,)
            span = min(width, cols - start)
            if plain:
                grid[..., start : start + span] = x[..., 1 : span + 1]
            else:
                assert np.array_equal(x[..., 1 : span + 1], grid[..., start : start + span] / 2.0**w)
                x[..., 1:] /= 2.0
        assert start + span == cols
    _assert_fill_is_step_loop(stack, grid, runs)


def test_fill_of_16_runs_makes_one_stacked_product_per_level(monkeypatch) -> None:
    # 16 keys of 128 steps each: one carry per run but the last and one
    # stacked product per doubling level, at most bit_length(128) + 16
    # products, where a fill per run makes 16 * 8. The runs' length is a
    # power of two, so this is the per-run fill bit for bit.
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    rng = np.random.default_rng(64)
    stack = _keyed_stack(rng, 16, 1, 2)[:, 0]
    runs = [(128 * k, 128 * (k + 1), k) for k in range(16)]
    x0 = np.array([0.6, 0.8j])
    powers = MapPowers(stack, 2048)
    for level in range(8):
        powers.square(level)
    monkeypatch.setattr(np, "matmul", counted)
    got = _run_states(powers, runs, x0)
    monkeypatch.undo()
    assert len(calls) <= (128).bit_length() + 16
    assert sum(shape == (16, 2, 2) for shape in calls) == 7
    one_by_one = np.empty((2, 2049), dtype=complex)
    one_by_one[:, 0] = x0
    for run in runs:
        powers.fill(one_by_one, [run])
    assert np.array_equal(got, one_by_one.T)
    _assert_fill_is_step_loop(stack, got.T, runs)


def test_fill_depth_is_capped_by_the_map_size(monkeypatch) -> None:
    # One d = 16 Liouvillian cell (D = 256) over 1024 steps: the ladder
    # forms at most max(1, 1024 // 256) = 4 levels, past which the run is
    # filled in blocks of M^8, and still matches the step loop to 1e-12.
    # At the bench's shapes, D = 4 with 16 keys and 2048 steps, the depth
    # is above the bit length of every run.
    formed = []
    square = MapPowers.square

    def counted(self, level: int) -> np.ndarray:
        out = square(self, level)
        formed.append(len(self.squares))
        return out

    monkeypatch.setattr(MapPowers, "square", counted)
    a = annihilation(16)
    model = LindbladModel(a.adjoint() @ a, (a,), 0.05)
    psi = np.zeros(16, dtype=complex)
    psi[1] = 1.0
    sweep, total, steps = lower_model(model), 1.0, 1024
    _, (stack,) = evolve_states(sweep, DensityMatrix.from_pure(psi), total, steps)
    assert 0 < max(formed) <= 4
    liouvillians = _liouvillian(sweep.k_tilde[0], sweep.channels[0], sweep.strengths[0])
    maps, runs = step_propagators(sweep.grid, 1j * liouvillians, total, steps)
    assert runs == [(0, steps, 0)]
    want = _loop_states(maps, [0] * steps, np.outer(psi, psi.conj()).reshape(-1))
    assert np.max(_relative_errors(stack.reshape(steps + 1, -1), want)) <= 1e-12
    assert MapPowers(np.empty((16, 4, 4)), 2048).depth > (2048).bit_length()


def test_a_propagation_squares_all_its_cells_together(monkeypatch) -> None:
    # On 16 cells of 128 steps each, the master equation, the no-jump
    # branch and the tracker each form one ladder whose levels are one
    # stacked product each: at most bit_length(128) products per
    # propagation, where a ladder per cell would form about 16 * 7.
    products = []
    square = MapPowers.square

    def counted(self, level: int) -> np.ndarray:
        before = len(self.squares)
        out = square(self, level)
        products.append(len(self.squares) - before)
        return out

    monkeypatch.setattr(MapPowers, "square", counted)
    rng = np.random.default_rng(62)
    total, steps = 2.0, 2048
    chans = (_random_schedule(rng, 2, 16, total),)
    hams = OperatorSchedule.piecewise(
        [Operator(0.5 * (m + m.conj().T)) for m in (_random_complex(rng, 2) for _ in range(16))],
        total / 16,
    )
    model = LindbladModel(hams, chans, 0.3)
    psi0 = np.array([0.6, 0.8j])
    bound = (steps // 16).bit_length()
    propagations = [
        lambda: propagate_no_jump(no_jump_hamiltonian(model), psi0, total, steps),
        lambda: evolve_states(lower_model(model), DensityMatrix.from_pure(psi0), total, steps),
        lambda: no_jump_geometric_phase(model, psi0, total, steps),
    ]
    for propagate in propagations:
        products.clear()
        result = propagate()
        assert 0 < sum(products) <= bound
    assert result.grid_steps == steps


@pytest.mark.parametrize("seed", range(4))
def test_propagate_no_jump_matches_step_loop(seed) -> None:
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(2, 5))
    sched = _random_schedule(rng, dim, int(rng.integers(1, 17)), 3.0)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    record = propagate_no_jump(sched, psi0, 3.0, steps=1000)
    maps = _cell_step_maps(sched, 3.0, 1000)
    want = _loop_states(maps, sched.step_cells(3.0, 1000).tolist(), psi0)
    assert np.max(_relative_errors(record.states, want)) <= STATE_RTOL


def _driven_damped_qubit(strength):
    """H = sigma_x / 2 and L = |1><0|: the channel does not commute with H,
    so the no-jump generator is non-normal."""
    lowering = Operator(np.array([[0.0, 0.0], [1.0, 0.0]]))
    return LindbladModel(0.5 * pauli("x"), (lowering,), strength)


def test_propagate_no_jump_keeps_weak_damping() -> None:
    # At dt = 2 pi / 65536 the normality defect of dt K_tilde is ~1e-14, yet
    # its non-normal part carries the damping.
    steps, total = 65536, 2 * math.pi
    gen = no_jump_hamiltonian(_driven_damped_qubit(1e-5))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    record = propagate_no_jump(gen, psi0, total, steps)
    k_tilde = gen.values[0].entries
    for k in range(0, steps + 1, 4096):
        want = scipy.linalg.expm(-1j * (total * k / steps) * k_tilde) @ psi0
        assert np.max(np.abs(record.states[k] - want)) <= 1e-11


def _reference_tracked_phase(model, shifts, psi0, total, steps) -> dict:
    """The no-jump geometric phase by plain per-step loops: states from the
    `cell_maps` of every cell, in the cell `Schedule.step_cells` gives each
    step, the overlap argument as a sum of per-step increments, and
    <psi|K|psi> / <psi|psi> integrated by SciPy's `simpson`. The grid
    doubles until no step away from a flagged crossing turns the overlap by
    more than pi/2."""
    lowered = lower_model(model, shifts)
    grid = lowered.grid
    attempt = steps
    for _ in range(MAX_GRID_DOUBLINGS):
        maps = cell_maps(lowered.k_tilde[0], range(len(lowered.k_tilde[0])), total / attempt)
        states = _loop_states(maps, grid.step_cells(total, attempt).tolist(), psi0)
        overlaps = [complex(np.vdot(psi0, s)) for s in states]
        norms = [float(np.linalg.norm(s)) for s in states]
        crossing = [abs(z) / (norms[0] * n) < BRANCH_EPS for z, n in zip(overlaps, norms)]
        increments = [cmath.phase(b * a.conjugate()) for a, b in zip(overlaps, overlaps[1:])]
        turns = [
            abs(inc) for k, inc in enumerate(increments) if not (crossing[k] or crossing[k + 1])
        ]
        if max(turns, default=0.0) <= 0.5 * math.pi:
            break
        attempt *= 2
    dt = total / attempt
    times = [k * dt for k in range(attempt + 1)]
    integrand = [
        np.vdot(s, lowered.k[0, grid.value_at(t)] @ s).real / n**2
        for s, t, n in zip(states, times, norms)
    ]
    return {
        "overlap_arg": math.fsum(increments),
        "dynamical_term": scipy.integrate.simpson(integrand, dx=dt),
        "final_norm": norms[-1],
        "grid_steps": attempt,
        "branch_crossings": tuple(t for t, c in zip(times, crossing) if c),
    }


def _random_shifted_model(seed, scale=1.0, total=2.0):
    """Random model (dim 2-4, 1-3 channels) and 3-cell piecewise complex
    shifts on [0, total]; scale multiplies the Hamiltonian."""
    rng = np.random.default_rng(seed)
    dim, count = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    h = _random_complex(rng, dim) / dim
    chans = tuple(Operator(_random_complex(rng, dim) / dim) for _ in range(count))
    model = LindbladModel(Operator(scale * (h + h.conj().T)), chans, 0.4)
    shifts = ShiftSet(
        tuple(
            ScalarSchedule.piecewise(0.5 * (rng.normal(size=3) + 1j * rng.normal(size=3)), total / 3)
            for _ in range(count)
        )
    )
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return model, shifts, psi0 / np.linalg.norm(psi0)


def _assert_matches_reference(got, want, modulo_two_pi=False) -> None:
    gap = got.overlap_arg - want["overlap_arg"]
    assert abs(wrap_phase(gap) if modulo_two_pi else gap) <= 1e-12
    assert abs(got.dynamical_term - want["dynamical_term"]) <= 1e-12
    assert abs(got.final_norm - want["final_norm"]) <= 1e-12
    assert got.grid_steps == want["grid_steps"]
    assert got.branch_crossings == want["branch_crossings"]


@pytest.mark.parametrize("seed", range(6))
def test_tracked_phase_matches_step_loop_on_random_models(seed) -> None:
    model, shifts, psi0 = _random_shifted_model(500 + seed)
    # 301 steps: the shift switches at t = 2/3 and 4/3 fall inside steps.
    got = no_jump_geometric_phase(model, psi0, 2.0, steps=301, shifts=shifts)
    want = _reference_tracked_phase(model, shifts, psi0, 2.0, 301)
    assert want["grid_steps"] == 301
    _assert_matches_reference(got, want)


@st.composite
def _drawn_shifted_models(draw):
    """(model, shifts, psi0, steps): a random model of dim 2-4 with 1-3
    channels and complex piecewise shifts of 2-5 cells on [0, 2], on a
    prime step count, so every shift edge falls inside a step."""
    dim, count, cells = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(2, 5))
    steps = draw(st.sampled_from([61, 97, 151, 211]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = _random_complex(rng, dim) / dim
    chans = tuple(Operator(_random_complex(rng, dim) / dim) for _ in range(count))
    model = LindbladModel(Operator(h + h.conj().T), chans, draw(st.floats(0.0, 0.5)))
    values = 0.5 * (rng.normal(size=(count, cells)) + 1j * rng.normal(size=(count, cells)))
    shifts = ShiftSet(tuple(ScalarSchedule.piecewise(v, 2.0 / cells) for v in values))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return model, shifts, psi0 / np.linalg.norm(psi0), steps


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_drawn_shifted_models())
def test_tracked_phase_matches_step_loop_on_drawn_models(case) -> None:
    model, shifts, psi0, steps = case
    got = no_jump_geometric_phase(model, psi0, 2.0, steps=steps, shifts=shifts)
    _assert_matches_reference(got, _reference_tracked_phase(model, shifts, psi0, 2.0, steps))


def test_tracked_phase_matches_step_loop_after_grid_doublings() -> None:
    # A fast Hamiltonian turns the overlap by more than pi/2 per step on 16
    # steps, so the tracker doubles the grid.
    model, shifts, psi0 = _random_shifted_model(520, scale=12.0)
    got = no_jump_geometric_phase(model, psi0, 2.0, steps=16, shifts=shifts)
    want = _reference_tracked_phase(model, shifts, psi0, 2.0, 16)
    assert want["grid_steps"] > 16
    _assert_matches_reference(got, want)


def test_tracked_phase_matches_step_loop_across_a_flagged_crossing() -> None:
    # From the equator the dephasing overlap is e^{-lam t / 2} cos(t / 2),
    # which vanishes at the grid point t = pi. Across the crossing the
    # argument is defined modulo 2 pi only.
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    model = _dephasing(0.5)
    got = no_jump_geometric_phase(model, psi0, 2 * math.pi, steps=64)
    want = _reference_tracked_phase(model, None, psi0, 2 * math.pi, 64)
    assert len(want["branch_crossings"]) == 1
    assert want["branch_crossings"][0] == pytest.approx(math.pi)
    _assert_matches_reference(got, want, modulo_two_pi=True)


def test_no_jump_phase_refuses_an_unresolved_crossing() -> None:
    # The overlap passes through zero between grid points near t = pi, so
    # every refined grid has a step that turns it by pi. The tracker must
    # refuse rather than follow a generator with its non-normal part dropped,
    # and name the finest grid it tracked: 4096 steps doubled six times.
    psi0 = np.array([math.cos(0.3), 1j * math.sin(0.3)])
    with pytest.raises(BranchTrackingError, match=r"after refining to 262144 steps$"):
        no_jump_geometric_phase(_driven_damped_qubit(1e-3), psi0, 2 * math.pi)


def _mixed_points():
    """(model, psi0, shifts) on [0, 4]: constant dephasing points, random
    piecewise models whose shift edges fall inside steps of a 301-step
    grid, one that doubles its grid, one whose grid refinement fails, one
    whose overlap vanishes at T and one that decays at lambda = 200."""
    theta = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)], dtype=complex)
    equator = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    points = [
        (_dephasing(lam), theta, ShiftSet.constants([f]))
        for f in (0.0, 0.2, 2.0)
        for lam in (0.1, 0.7)
    ]
    points.append((_dephasing(200.0), theta, None))
    points.append((_dephasing(0.5, omega=math.pi / 4), equator, None))
    for seed, scale in [(521, 1), (522, 1), (523, 1), (525, 1), (526, 1), (527, 1), (528, 30)]:
        model, shifts, psi0 = _random_shifted_model(seed, scale, total=4.0)
        points.append((model, psi0, shifts))
    model, shifts, psi0 = _random_shifted_model(520, 60, total=4.0)
    points.insert(3, (model, psi0, shifts))
    return points


@pytest.mark.parametrize("budget", [None, 2**15, 2**12], ids=["default", "small", "tiny"])
def test_mixed_no_jump_phases_match_one_point_calls(budget, monkeypatch) -> None:
    # One-point calls on the default budget against one call for all
    # points; the small budgets split the stacks and the grid into windows
    # of a few columns, so runs start inside windows and windows continue
    # runs.
    points, total, steps = _mixed_points(), 4.0, 301
    want = []
    for model, psi0, shifts in points:
        try:
            want.append(no_jump_geometric_phase(model, psi0, total, steps, shifts))
        except (BranchTrackingError, TotalDecayError) as exc:
            want.append(exc)
    if budget is not None:
        monkeypatch.setattr(trajphase.jump, "STACK_BYTES", budget)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = no_jump_geometric_phases(points, total, steps)
    assert len(got) == len(points)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, Exception):
            assert str(g) == str(w)
            continue
        assert g.grid_steps == w.grid_steps
        assert g.branch_crossings == w.branch_crossings
        for name in ("phase", "overlap_arg", "dynamical_term", "final_norm"):
            assert abs(getattr(g, name) - getattr(w, name)) <= 1e-12
    kinds = [type(w).__name__ for w in want]
    assert kinds.count("TotalDecayError") == 1
    assert kinds.count("BranchTrackingError") == 2
    assert "underflowed" in str(want[kinds.index("TotalDecayError")])
    assert max(w.grid_steps for w in want if not isinstance(w, Exception)) > steps


def test_flagged_crossing_carries_across_window_edges(monkeypatch) -> None:
    # The crossing at t = pi is grid column 32 of 64 steps. Budgets from a
    # few columns to the whole grid per window put it at every position in
    # a window, the last one included, where its flag must carry.
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    model = _dephasing(0.5)
    want = no_jump_geometric_phase(model, psi0, 2 * math.pi, steps=64)
    assert len(want.branch_crossings) == 1
    for budget in range(1000, 20000, 97):
        monkeypatch.setattr(trajphase.jump, "STACK_BYTES", budget)
        got = no_jump_geometric_phase(model, psi0, 2 * math.pi, steps=64)
        assert got.grid_steps == want.grid_steps
        assert got.branch_crossings == want.branch_crossings
        assert abs(wrap_phase(got.phase - want.phase)) <= 1e-12


def _lone_point_peak(steps: int) -> int:
    """tracemalloc peak of one constant dephasing point on `steps` steps."""
    model = _dephasing(0.5)
    psi0 = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)], dtype=complex)
    shifts = ShiftSet.constants([0.2])
    no_jump_geometric_phase(model, psi0, 2 * math.pi, 4096, shifts)
    tracemalloc.start()
    try:
        res = no_jump_geometric_phase(model, psi0, 2 * math.pi, steps, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.grid_steps == steps
    return peak


def test_no_jump_phase_memory_does_not_grow_with_steps() -> None:
    # A lone point's windows and run finding stay within 640 KiB + 1 MB; at
    # 65536 steps the whole-grid arrays would take 9 MB.
    assert _lone_point_peak(65536) <= 5 * 2**17 + 10**6


def test_no_jump_phase_memory_is_flat_from_2_16_to_2_18_steps() -> None:
    # Neither the tracker nor the run finding holds an array of the grid:
    # four times the steps leave the peak where it was.
    assert _lone_point_peak(2**18) <= _lone_point_peak(2**16) + 250_000


def _bench_sweep():
    """The bench sweep's 63 qubit points as one lowered sweep, and their
    (63, 2) initial states."""
    strengths = np.repeat([np.linspace(0.0, 1.0, 21)], 3, axis=0).reshape(-1)
    shifts = np.repeat([0.0, 0.2, 2.0], 21).reshape(63, 1, 1).astype(complex)
    sweep = lower_sweep(_dephasing(0.0), strengths, shifts)
    return sweep, np.tile(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0), (63, 1))


def test_no_jump_stack_stays_within_its_window_budget() -> None:
    # The bench sweep on 4096 steps: the tracker's window buffers fill
    # STACK_BYTES, and everything else it holds at once stays within 128
    # KiB. NumPy gives a ufunc a temporary of each 2-D operand that is
    # strided or broadcast (up to 8192 entries), so this fails if a row the
    # tracker works on is one.
    sweep, states = _bench_sweep()
    sweep_no_jump_phases(sweep, states, 2 * math.pi, 4096)
    tracemalloc.start()
    try:
        results = sweep_no_jump_phases(sweep, states, 2 * math.pi, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.grid_steps == 4096 for r in results)
    assert peak <= trajphase.jump.STACK_BYTES + 2**17


def test_bench_sweep_is_tracked_as_one_stack(monkeypatch) -> None:
    # The bench sweep on 4096 steps is one stack, in windows that fill
    # STACK_BYTES: a budget or split that tracked it in two stacks, of twice
    # the windows, fails here.
    sweep, states = _bench_sweep()
    stacks = []
    track = trajphase.jump._track_stack

    def counted(gens, *args):
        stacks.append(len(gens))
        return track(gens, *args)

    monkeypatch.setattr(trajphase.jump, "_track_stack", counted)
    results = sweep_no_jump_phases(sweep, states, 2 * math.pi, 4096)
    assert stacks == [63]
    assert all(r.grid_steps == 4096 for r in results)


def _tracker_rows(z):
    """The (Re, Im) rows of the (N, 2) overlaps z as the tracker forms them:
    |z|^2 of each, and the Re and Im parts and argument of each turn z[:, 1]
    conj z[:, 0], as (N, 1) columns, from the pairs' rows taken flat."""
    rows = np.stack([z.real, z.imag])
    size = np.einsum("cgk,cgk->gk", rows, rows)
    real, imag, scratch = np.empty((3, z.size))
    _turns(rows[0].reshape(-1), rows[1].reshape(-1), real, imag, scratch)
    real, imag = real[1::2, np.newaxis], imag[1::2, np.newaxis]
    return size, real, imag, np.arctan2(imag, real)


def _same_bits(a, b) -> bool:
    """Equal values, NaNs included, and equal signs of zeros."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b)
    )


def test_crossing_and_calm_tests_decide_as_abs_and_arctan2() -> None:
    # Every pair of overlaps (z_{k-1}, z_k) from zeros of both signs, NaN,
    # infinities, exact quarter turns and ordinary values, with squared
    # norms as a state of that overlap can have (NaN or inf where z is not
    # finite), gets the tracker's step decision, calm or next to a flagged
    # crossing, as the former |z| / (|psi0| |psi|) < BRANCH_EPS and
    # |arg(z_k conj z_{k-1})| <= pi/2 gave, from the complex product. The
    # tracker forms the turn from the overlaps' Re and Im rows; its parts
    # equal the complex product's, signs of zeros included. A state of
    # squared norm 0 has decayed, so it is not one of them.
    parts = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, math.inf, -math.inf, math.nan]
    overlaps = [complex(a, b) for a in parts for b in parts]

    def norms(z):
        if math.isnan(z.real) or math.isnan(z.imag):
            return [math.nan]
        if math.isinf(z.real) or math.isinf(z.imag):
            return [math.inf, math.nan]
        return [0.25, 1.0, 2.0, 1e-250]

    pairs = [
        (a, b, sa, sb) for a in overlaps for b in overlaps for sa in norms(a) for sb in norms(b)
    ]
    z = np.array([[a, b] for a, b, _, _ in pairs])
    sq = np.array([[sa, sb] for _, _, sa, sb in pairs])
    for sq0 in (0.25, 1.0, 3.0):
        with np.errstate(all="ignore"):
            old_cross = np.abs(z) / (math.sqrt(sq0) * np.sqrt(sq)) < BRANCH_EPS
            turn = z[:, 1:] * z[:, :1].conj()
            old = (np.abs(np.arctan2(turn.imag, turn.real)) <= 0.5 * math.pi) | old_cross.any(
                axis=1, keepdims=True
            )
            size, real, imag, increments = _tracker_rows(z)
            limit = np.full((len(sq), 1), BRANCH_EPS**2 * sq0)
            cross = _flag_crossings(size, sq, limit, np.empty(sq.shape), np.empty(sq.shape, bool))
            sums = increments.sum(axis=1)
            calm = _flag_calm_steps(real, increments, sums, np.empty(real.shape, bool))
        assert _same_bits(real, turn.real) and _same_bits(imag, turn.imag)
        assert np.array_equal(cross, old_cross)
        assert np.array_equal(calm | cross.any(axis=1, keepdims=True), old)

    # At the BRANCH_EPS boundary, with norms that scale exactly.
    for sq0, sqk in [(1.0, 1.0), (0.25, 4.0), (4.0, 0.25), (1.0, 2.0**-40)]:
        edge = BRANCH_EPS * math.sqrt(sq0) * math.sqrt(sqk)
        sizes = [edge * s for s in (1 - 2**-50, 1 - 2**-52, 1.0, 1 + 2**-52, 1 + 2**-50)]
        z = np.array([[complex(v, 0.0), complex(0.0, -v)] for v in sizes])
        sq = np.full(z.shape, sqk)
        limit = np.full((len(sq), 1), BRANCH_EPS**2 * sq0)
        old_cross = np.abs(z) / (math.sqrt(sq0) * np.sqrt(sq)) < BRANCH_EPS
        size = _tracker_rows(z)[0]
        cross = _flag_crossings(size, sq, limit, np.empty(sq.shape), np.empty(sq.shape, bool))
        assert np.array_equal(cross, old_cross)
        assert old_cross[:2].all() and not old_cross[2:].any()

    # Where a turn just past pi/2 rounds to pi/2, the old test called it
    # calm; the sign of its real part does not.
    _, real, _, increments = _tracker_rows(np.array([[1.0, complex(-1e-300, 1.0)]]))
    assert real[0, 0] == -1e-300
    assert np.abs(increments[0, 0]) <= 0.5 * math.pi
    calm = _flag_calm_steps(real, increments, increments.sum(axis=1), np.empty((1, 1), bool))
    assert not calm[0, 0]


def _superoperator(model, t, dim):
    """rho -> lindblad_rhs(model, rho, t) as a matrix on the row-major
    vec(rho), one column per matrix unit."""
    units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return np.stack(
        [lindblad_rhs(model, unit, t).entries.reshape(-1) for unit in units], axis=1
    )


def _reference_evolve(model, rho0, total_time, steps):
    """rho on the grid, as a (steps + 1, d, d) stack, by one scipy expm(dt S)
    per step, S being the right-hand side at the step's midpoint."""
    dt = total_time / steps
    vec = rho0.entries.reshape(-1)
    out = [vec]
    for k in range(steps):
        vec = scipy.linalg.expm(dt * _superoperator(model, (k + 0.5) * dt, rho0.dim)) @ vec
        out.append(vec)
    return np.array(out).reshape(steps + 1, rho0.dim, rho0.dim)


def _random_piecewise_model(rng, dim, cells, total):
    cell = total / cells

    def hermitian():
        a = _random_complex(rng, dim)
        return Operator(0.5 * (a + a.conj().T))

    ham = OperatorSchedule.piecewise([hermitian() for _ in range(cells)], cell)
    chans = tuple(
        OperatorSchedule.piecewise(
            [Operator(0.5 * _random_complex(rng, dim)) for _ in range(cells)], cell
        )
        for _ in range(int(rng.integers(1, 3)))
    )
    return LindbladModel(ham, chans, 0.4)


def _random_rho(rng, dim):
    a = _random_complex(rng, dim)
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@pytest.mark.parametrize("seed", range(4))
def test_evolve_density_matches_expm_product(seed) -> None:
    rng = np.random.default_rng(300 + seed)
    dim = int(rng.integers(2, 4))
    total, steps = 3.0, 70
    # Switches at t = 1 and t = 2 fall inside steps 23 and 46.
    model = _random_piecewise_model(rng, dim, 3, total)
    rho0 = _random_rho(rng, dim)
    got = evolve_density(model, rho0, total, steps=steps)
    want = _reference_evolve(model, rho0, total, steps)
    assert [t for t, _ in got] == [k * (total / steps) for k in range(steps + 1)]
    worst = max(np.max(np.abs(a.entries - b)) for (_, a), b in zip(got, want))
    assert worst <= RHO_ATOL
    # One step per cell: each step is the whole cell's exponential.
    got = evolve_density(model, rho0, total, steps=3)
    want = _reference_evolve(model, rho0, total, 3)
    assert max(np.max(np.abs(a.entries - b)) for (_, a), b in zip(got, want)) <= RHO_ATOL


def _dephasing(strength, omega=1.0):
    return LindbladModel(
        Operator(0.5 * omega * pauli("z").entries),
        (OperatorSchedule.constant(pauli("z")),),
        strength,
    )


EQUATOR = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def _quietly(run):
    """run() and the texts of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return out, [str(w.message) for w in caught]


def test_coarse_grid_keeps_the_closed_form_coherence() -> None:
    # lambda dt = 20: each step is still the exact map of its cell.
    lam = 40.0
    (times, (rhos,)), caught = _quietly(
        lambda: evolve_states(lower_model(_dephasing(lam)), EQUATOR, 2.0, 4)
    )
    assert caught == []
    want = 0.5 * np.exp(-(2 * lam + 1j) * times)
    assert np.max(np.abs(rhos[:, 0, 1] - want)) <= 1e-12
    assert np.max(np.abs(rhos[:, 0, 1] - want) / np.abs(want)) <= 1e-10
    for rho in rhos:
        DensityMatrix(rho).validate()


@pytest.mark.parametrize(
    "steps, turn",
    [(400, 2.0 * math.sqrt(2.0) + 4e-9), (4000, 3.0)],
    ids=["400-steps", "4000-steps"],
)
def test_large_rotation_per_step_keeps_the_coherence(steps, turn) -> None:
    # Closed system turning the coherence by `turn` radians per step.
    model = _dephasing(0.0, turn * steps / 2.0)
    samples, caught = _quietly(lambda: evolve_density(model, EQUATOR, 2.0, steps=steps))
    assert caught == []
    rhos = np.array([rho.entries for _, rho in samples])
    assert np.max(np.abs(np.abs(rhos[:, 0, 1]) - 0.5)) <= 1e-12
    assert np.max(np.abs(rhos[:, [0, 1], [0, 1]] - 0.5)) <= 1e-12


def _diagonal_stack(lows):
    """Qubit states diag(1 - low, low), one per step, with unit trace."""
    return np.array([np.diag([1.0 - low, low]) for low in lows], dtype=complex)


def _checked(rhos, monkeypatch):
    """(warning texts, eigvalsh calls) of `_check_states` on a synthetic stack."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    times = 0.25 * np.arange(1, len(rhos) + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _check_states(rhos, times)
    return [str(w.message) for w in caught], calls


def test_positivity_screen_skips_eigenvalues_of_valid_states(monkeypatch) -> None:
    rhos = _diagonal_stack([0.5, 0.0, 1e-3, -0.25 * POSITIVITY_TOL])
    assert _checked(rhos, monkeypatch) == ([], [])


def test_positivity_screen_failing_within_roundoff_stays_silent(monkeypatch) -> None:
    # Below -tol/2 the factorization fails, but -0.75 tol is still roundoff.
    rhos = _diagonal_stack([0.5, -0.75 * POSITIVITY_TOL, 0.3])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(rhos + 0.5 * POSITIVITY_TOL * np.eye(2))
    assert _checked(rhos, monkeypatch) == ([], [3])


def test_positivity_check_warns_with_the_step(monkeypatch) -> None:
    rhos = _diagonal_stack([0.5, 0.5, -2.0 * POSITIVITY_TOL, 0.5])
    low = float(np.linalg.eigvalsh(rhos[2]).min())
    messages, calls = _checked(rhos, monkeypatch)
    assert messages == [f"density eigenvalue {low} at step 3 is beyond roundoff"]
    assert calls == [4]


def _refused(rhos):
    """(error text, warning texts) of `_check_states` on a stack it refuses."""
    times = 0.25 * np.arange(1, len(rhos) + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationError) as info:
            _check_states(rhos, times)
    return str(info.value), [str(w.message) for w in caught]


def test_blow_up_raises_without_numpy_warnings() -> None:
    # Blown-up states: nan at step 2, inf at step 4. The check names the
    # first, and NumPy's own overflow and invalid warnings stay silent.
    rhos = _diagonal_stack([0.5, 0.5, 0.5, 0.5])
    rhos[1, 0, 1] = rhos[1, 1, 0] = np.nan
    rhos[3, 0, 0] = np.inf
    assert _refused(rhos) == (
        "step 2 (t = 0.5): density matrix has non-finite entries", []
    )


def test_check_states_names_the_first_trace_defect() -> None:
    rhos = _diagonal_stack([0.5, 0.5, 0.5, 0.5])
    rhos[2, 0, 0] += 1e-9
    assert _refused(rhos) == (
        "step 3 (t = 0.75): density matrix trace differs from 1 beyond 1e-10", []
    )


def test_positivity_check_raises_below_the_hard_limit(monkeypatch) -> None:
    rhos = _diagonal_stack([-2.0 * POSITIVITY_TOL, 0.5, -2.0 * POSITIVITY_HARD_TOL, -0.1])
    low = float(np.linalg.eigvalsh(rhos[2]).min())
    with pytest.raises(IntegrationError) as info:
        _checked(rhos, monkeypatch)
    assert str(info.value) == f"step 3 (t = 0.75): eigenvalue {low} below -{POSITIVITY_HARD_TOL}"


PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _exit_code(argv):
    """`cli.main` on argv, its exit code and what it wrote to stderr raised
    as SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    raise SystemExit(f"{code} {err.getvalue().strip()}")


def _jobs_in_this_process(monkeypatch):
    """With TRAJPHASE_THREADS not an integer, the jobs run in one worker,
    this process."""
    monkeypatch.setenv(THREADS_ENV, "two")
    assert map_ordered(lambda job: (job, os.getpid()), [0, 1]) == [(0, os.getpid()), (1, os.getpid())]


def _sweep():
    return lower_model(_dephasing(0.5))


# Refusals no other test reaches, each with the outcome it must give: an
# error, an exit code (SystemExit) or a warning.
REFUSALS = {
    "tracked-negative-time": (
        lambda tmp, mp: sweep_no_jump_phases(_sweep(), [PLUS], -1.0),
        ValueError,
        "total_time must be >= 0",
    ),
    "no-points-negative-time": (
        lambda tmp, mp: no_jump_geometric_phases([], -1.0),
        ValueError,
        "total_time must be >= 0",
    ),
    "sweep-state-count": (
        lambda tmp, mp: sweep_no_jump_phases(_sweep(), [PLUS, PLUS], 1.0),
        ValueError,
        "2 initial states for 1 points",
    ),
    "energy-negative-time": (
        lambda tmp, mp: energy_integral(_sweep(), PLUS, -1.0),
        ValueError,
        "total_time must be >= 0",
    ),
    "evolve-negative-time": (
        lambda tmp, mp: evolve_states(_sweep(), EQUATOR, -1.0),
        ValueError,
        "total_time must be >= 0",
    ),
    "evolve-no-steps": (
        lambda tmp, mp: evolve_states(_sweep(), EQUATOR, 1.0, 0),
        ValueError,
        "steps must be >= 1",
    ),
    "kraus-step": (
        lambda tmp, mp: kraus_connection_matrix(ShiftSet.constants([0.3]), 0.5, 0.0),
        ValueError,
        "delta_t must be positive",
    ),
    "out-is-a-directory": (
        lambda tmp, mp: _exit_code(["evolve", "--config", "fig1", "--steps", "16", "--out", str(tmp)]),
        SystemExit,
        f"^{EXIT_CONFIG} trajphase: cannot write output: .*Is a directory",
    ),
    "threads-not-an-integer": (
        lambda tmp, mp: _jobs_in_this_process(mp),
        RuntimeWarning,
        f"ignoring non-integer {THREADS_ENV}='two'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_no_other_test_reaches(case, tmp_path, monkeypatch) -> None:
    call, outcome, match = REFUSALS[case]
    expect = pytest.warns if issubclass(outcome, Warning) else pytest.raises
    with expect(outcome, match=match):
        call(tmp_path, monkeypatch)
