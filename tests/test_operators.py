"""Units for the operator containers, schedules, and exact propagation."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import trajphase.operators
from trajphase.operators import (
    BlochAngles,
    MapPowers,
    Operator,
    OperatorSchedule,
    PureState,
    ScalarSchedule,
    ScheduleRangeError,
    annihilation,
    bloch_angles,
    bloch_path,
    bloch_state,
    cell_maps,
    combine_schedules,
    commutator,
    identity,
    index_runs,
    is_hermitian,
    key_runs,
    key_view,
    keyed_runs,
    matrix_exponential,
    pauli,
    real_form,
    run_blocks,
    run_view,
    run_windows,
    simpson_weights,
    step_runs,
    wrap_phase,
)


def test_pauli_algebra() -> None:
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    assert np.allclose(commutator(sx, sy).entries, 2j * sz.entries)
    assert np.allclose((sx @ sx).entries, np.eye(2))
    assert np.allclose(sz.entries, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        pauli("w")


def test_annihilation_matrix_elements() -> None:
    a = annihilation(4)
    for n in range(1, 4):
        assert a.entries[n - 1, n] == pytest.approx(math.sqrt(n))
    num = a.adjoint() @ a
    assert np.allclose(num.entries, np.diag([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        annihilation(1)


def test_operator_is_immutable() -> None:
    op = pauli("z")
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))


def test_operator_arithmetic_and_trace() -> None:
    a = pauli("x")
    b = pauli("z")
    assert (a + b - a).trace() == pytest.approx(0.0)
    assert np.allclose((2.0 * a).entries, 2 * a.entries)
    assert np.allclose((-a).entries, -a.entries)
    c = Operator([[0, 1j], [0, 0]])
    assert np.allclose(c.adjoint().entries, [[0, 0], [-1j, 0]])
    assert not is_hermitian(c)
    assert is_hermitian(a)


def test_pure_state_norm_and_overlap() -> None:
    psi = PureState([3.0, 4.0j])
    assert psi.norm == pytest.approx(5.0)
    unit = psi.normalized()
    assert unit.norm == pytest.approx(1.0)
    assert unit.overlap(unit) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PureState(np.zeros(2)).normalized()
    # 3.55e-281 squared underflows to 0; the state is still |1>.
    assert PureState([0.0, 3.55e-281]).normalized().amplitudes.tolist() == [0.0, 1.0]


def test_bloch_round_trip() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0, 2 * math.pi)
        back = bloch_angles(bloch_state(BlochAngles(theta, phi)))
        assert back.theta == pytest.approx(theta, abs=1e-12)
        assert wrap_phase(back.phi - phi) == pytest.approx(0.0, abs=1e-12)


def test_bloch_angle_validation() -> None:
    with pytest.raises(ValueError):
        BlochAngles(-0.5, 0.0)
    # Tiny excursions are float noise and get clamped.
    assert BlochAngles(math.pi + 1e-13, 0.0).theta == math.pi
    assert BlochAngles(0.0, -math.pi).phi == pytest.approx(math.pi)
    # -1e-17 % 2 pi rounds to 2 pi; phi stays inside [0, 2 pi).
    assert BlochAngles(0.0, -1e-17).phi == 0.0
    with pytest.raises(ValueError):
        bloch_angles(PureState([1.0, 0.0, 0.0]))


def test_bloch_path_matches_scalar_conversion() -> None:
    states = np.array([bloch_state(BlochAngles(t, 0.3)).amplitudes for t in (0.2, 1.0, 2.9)])
    theta, phi = bloch_path(states)
    assert theta == pytest.approx([0.2, 1.0, 2.9])
    assert phi == pytest.approx([0.3, 0.3, 0.3])


def test_bloch_path_stores_phi_below_two_pi() -> None:
    # The relative phase is a tiny negative angle, which % 2 pi rounds up
    # to 2 pi itself; like BlochAngles, the path stores 0.
    states = np.array([[1.0, 0.5 - 1e-18j]])
    _, phi = bloch_path(states)
    assert phi.tolist() == [0.0]
    assert phi.tolist() == [bloch_angles(PureState(states[0])).phi]


def test_schedule_lookup_and_range() -> None:
    ops = [pauli("z"), pauli("x"), pauli("y")]
    sched = OperatorSchedule.piecewise(ops, 0.5)
    assert sched.extent == pytest.approx(1.5)
    assert sched.value_at(0.1) is ops[0]
    assert sched.value_at(0.5) is ops[1]
    assert sched.value_at(1.49) is ops[2]
    # The right endpoint belongs to the last cell.
    assert sched.value_at(1.5) is ops[2]
    with pytest.raises(ScheduleRangeError):
        sched.value_at(1.6)
    assert not sched.covers(0.0, 2.0)
    const = OperatorSchedule.constant(ops[0])
    assert const.covers(-10.0, 10.0)
    assert const.value_at(123.0) is ops[0]


def test_scalar_schedule_mirrors_operator_grid() -> None:
    sched = ScalarSchedule.piecewise([1.0, 2.0j], 1.0)
    assert sched.value_at(0.0) == 1.0
    assert sched.value_at(1.7) == 2.0j
    with pytest.raises(ScheduleRangeError):
        sched.value_at(2.5)
    with pytest.raises(ValueError):
        ScalarSchedule.piecewise([], 1.0)
    with pytest.raises(ValueError):
        ScalarSchedule((1.0, 2.0), None)


def test_combine_schedules_broadcasts_constants() -> None:
    ham = OperatorSchedule.piecewise([pauli("z"), pauli("x")], 1.0)
    shift = ScalarSchedule.constant(0.5)

    def build(h: Operator, s: complex) -> Operator:
        return Operator(h.entries * s)

    out = combine_schedules(build, ham, shift)
    assert not out.is_constant
    assert np.allclose(out.value_at(1.5).entries, 0.5 * pauli("x").entries)

    both_const = combine_schedules(build, OperatorSchedule.constant(pauli("z")), shift)
    assert both_const.is_constant


def test_combine_schedules_rejects_mismatched_grids() -> None:
    a = OperatorSchedule.piecewise([pauli("z"), pauli("x")], 1.0)
    b = ScalarSchedule.piecewise([1.0, 2.0, 3.0], 1.0)
    with pytest.raises(ValueError):
        combine_schedules(lambda h, s: Operator(h.entries * s), a, b)


def test_matrix_exponential_matches_scipy() -> None:
    rng = np.random.default_rng(11)
    hermitian = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    hermitian = hermitian + hermitian.conj().T
    got = matrix_exponential(-1j * hermitian)
    want = scipy.linalg.expm(-1j * hermitian)
    assert np.max(np.abs(got - want)) < 1e-12
    # Unitarity of the Hermitian-generator exponential.
    assert np.max(np.abs(got @ got.conj().T - np.eye(4))) < 1e-12

    skew = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = matrix_exponential(skew)
    want = scipy.linalg.expm(skew)
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_matrix_exponential_keeps_a_tiny_non_normal_part() -> None:
    # The normality defect of this nilpotent A is 1e-12: quadratic in the
    # non-normal part, so a normality test at that level would drop it.
    a = np.array([[0.0, 1e-6], [0.0, 0.0]])
    got = matrix_exponential(a)
    assert np.max(np.abs(got - (np.eye(2) + a))) <= 1e-15


def test_matrix_exponential_matches_scipy_across_norms() -> None:
    rng = np.random.default_rng(12)
    for norm in np.geomspace(1e-3, 50.0, 40):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= norm / np.linalg.norm(a, 1)
        got = matrix_exponential(a)
        want = scipy.linalg.expm(a)
        assert np.linalg.norm(got - want, 1) <= 1e-12 * np.linalg.norm(want, 1)
    assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_matrix_exponential_of_a_stack_equals_each_alone() -> None:
    # Norms from 1e-4 to 500 take every Pade degree and several squarings,
    # so the stack splits into groups; each matrix keeps its bits.
    rng = np.random.default_rng(13)
    norms = np.geomspace(1e-4, 500.0, 24)
    a = rng.normal(size=(24, 3, 3)) + 1j * rng.normal(size=(24, 3, 3))
    a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
    alone = np.array([matrix_exponential(m) for m in a])
    assert np.array_equal(matrix_exponential(a), alone)
    assert np.array_equal(matrix_exponential(a.reshape(4, 6, 3, 3)), alone.reshape(4, 6, 3, 3))
    same = a[5] * np.linspace(0.9, 1.0, 7)[:, None, None]
    assert np.array_equal(matrix_exponential(same), [matrix_exponential(m) for m in same])
    a[7, 1, 2] = np.nan
    with pytest.raises(ValueError):
        matrix_exponential(a)


def test_cell_maps_equal_each_cells_exponential_byte_for_byte() -> None:
    # Cells whose step generators take every Pade degree and up to six
    # squarings, asked for out of order: one stacked exponential gives each
    # row the bits of its cell's alone.
    rng = np.random.default_rng(14)
    dt = 0.37
    norms = [1e-3, 0.2, 0.8, 2.0, 5.0, 30.0, 300.0]
    values = []
    for norm in norms:
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        values.append(Operator(g * norm / (dt * np.abs(g).sum(axis=0).max())))
    generators = np.stack([op.entries for op in values])
    cells = [4, 0, 6, 1, 3, 5, 2]
    maps = cell_maps(generators, cells, dt)
    assert maps.shape == (7, 3, 3)
    choices = set()
    for c, got in zip(cells, maps):
        step = -1j * dt * values[c].entries
        choices.add(trajphase.operators._pade_choice(float(np.abs(step).sum(axis=0).max())))
        assert got.tobytes() == matrix_exponential(step).tobytes()
    assert {m for m, _ in choices} == {3, 5, 7, 9, 13}
    assert max(s for _, s in choices) >= 6
    assert cell_maps(generators, [], dt).shape == (0, 3, 3)


def test_keyed_runs_key_each_run_by_its_row_of_first_use() -> None:
    runs = [(0, 2, 4), (2, 3, 0), (3, 5, 4), (5, 6, 6), (6, 9, 0)]
    keys, keyed = keyed_runs(runs)
    assert keys == [4, 0, 6]
    assert keyed == [(0, 2, 0), (2, 3, 1), (3, 5, 0), (5, 6, 2), (6, 9, 1)]
    assert keyed_runs([]) == ([], [])


def test_run_blocks_group_equal_runs_whose_keys_step_evenly() -> None:
    # Equal lengths with keys 0, 1, 2; a key that breaks the step; keys
    # stepping by -2; a repeated key (step 0); a lone run of another length.
    runs = [(0, 4, 0), (4, 8, 1), (8, 12, 2), (12, 16, 5), (16, 20, 3), (20, 24, 1)]
    runs += [(24, 26, 1), (26, 28, 1), (28, 29, 1)]
    assert run_blocks(runs) == [
        (0, 3, 4, 0, 1),
        (12, 3, 4, 5, -2),
        (24, 2, 2, 1, 0),
        (28, 1, 1, 1, 0),
    ]
    assert run_blocks([]) == []
    # Views of the runs of a block, and of their keys' maps, without copies.
    cols = np.arange(30.0)
    view = run_view(cols, 12, 3, 4, 5)
    assert np.shares_memory(view, cols)
    assert view.tolist() == [list(range(a, a + 5)) for a in (12, 16, 20)]
    stack = np.arange(6.0)[:, np.newaxis] * np.ones((6, 2))
    assert key_view(stack, 5, -2, 3)[:, 0].tolist() == [5.0, 3.0, 1.0]
    assert key_view(stack, 1, 0, 2)[:, 0].tolist() == [1.0, 1.0]


@pytest.mark.parametrize(
    "shape", [(16, 4, 4), (16, 1, 4, 4), (16, 63, 4, 4), (3, 2, 2), (5, 8, 8), (2, 16, 16)]
)
@pytest.mark.parametrize("form", ["complex", "real"])
def test_map_powers_levels_equal_each_keys_own_squares(shape, form) -> None:
    # Every level of a keyed ladder, one stacked product each, has the bits
    # of each key's 2-D map squared alone, as has every key's power. Each
    # map has spectral radius 1, so its powers neither vanish nor overflow.
    rng = np.random.default_rng(sum(shape))
    maps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    maps /= np.abs(np.linalg.eigvals(maps)).max(axis=-1)[..., np.newaxis, np.newaxis]
    if form == "real":
        maps = real_form(maps)
    powers = MapPowers(maps, 1023)
    alone = maps.reshape(-1, *maps.shape[-2:])
    for level in range(10):
        assert np.array_equal(powers.square(level), alone.reshape(maps.shape))
        assert np.isfinite(alone).all() and np.abs(alone).max() > 1e-3
        alone = np.array([m @ m for m in alone])
    for n in (3, 100, 1023):
        whole = powers.power(n)
        for key in range(len(maps)):
            assert np.array_equal(whole[key], MapPowers(maps[key : key + 1], 1023).power(n)[0])


@pytest.mark.parametrize("dx", [1e-3, 0.1, 2 * math.pi / 4097, 1.0, 7.5])
def test_simpson_equals_scipy_on_both_parities(dx) -> None:
    # Each weight is SciPy's integral of its unit vector, bit for bit, and
    # the weighted sum is SciPy's integral up to the order of summation.
    rng = np.random.default_rng(13)
    for count in range(2, 42):
        weights = simpson_weights(count, dx)
        for k, weight in enumerate(weights):
            assert weight == scipy.integrate.simpson(np.eye(count)[k], dx=dx)
        samples = rng.normal(size=count) * 10.0 ** rng.uniform(-3, 3)
        want = scipy.integrate.simpson(samples, dx=dx)
        assert abs(np.sum(weights * samples) - want) <= 1e-14 * np.sum(np.abs(weights * samples))


@pytest.mark.parametrize("count", [2, 3, 4, 5, 1024, 1025])
def test_simpson_weights_split_at_any_column(count) -> None:
    # A sum split into two spans, at every column edge, with each span's
    # weights formed from its indices alone, matches SciPy's rule.
    rng = np.random.default_rng(count)
    dx = 2 * math.pi / (count - 1)
    samples = np.cos(np.arange(count) * dx) + rng.normal(size=count)
    want = scipy.integrate.simpson(samples, dx=dx)
    whole = simpson_weights(count, dx)
    scale = np.sum(np.abs(whole * samples))
    for edge in range(count + 1):
        head = simpson_weights(count, dx, 0, edge)
        tail = simpson_weights(count, dx, edge, count)
        assert np.array_equal(np.concatenate([head, tail]), whole)
        got = np.sum(head * samples[:edge]) + np.sum(tail * samples[edge:])
        assert abs(got - want) <= 1e-14 * scale
    # Windows of every width from 1 to 40 columns tile the grid.
    for width in range(1, 41):
        edges = range(0, count, width)
        parts = [simpson_weights(count, dx, a, min(a + width, count)) for a in edges]
        assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_index_runs_merge_across_blocks(block, monkeypatch) -> None:
    # Runs that start, end and continue on every side of a block edge.
    rng = np.random.default_rng(block)
    keys = np.repeat(rng.integers(0, 3, 300), rng.integers(1, 12, 300))
    monkeypatch.setattr(trajphase.operators, "RUN_BLOCK", block)
    for count in (1, 2, block, block + 1, len(keys)):
        want = key_runs(keys[:count])
        assert index_runs(lambda k: keys[k], count) == want
    assert index_runs(lambda k: keys[k], 0) == []


def _runs_of_step_cells(sched, total: float, steps: int) -> list:
    """(start, stop, cell) runs of the step-to-cell rule, grouped step by step."""
    runs, start = [], 0
    for cell, group in itertools.groupby(sched.step_cells(total, steps).tolist()):
        stop = start + sum(1 for _ in group)
        runs.append((start, stop, cell))
        start = stop
    return runs


@pytest.mark.parametrize("seed", range(4))
def test_step_runs_equal_the_runs_of_the_step_cells(seed) -> None:
    # Cells wider and narrower than a step, edges on and off the grid,
    # grids that stop short of the schedule's end.
    rng = np.random.default_rng(seed)
    for _ in range(200):
        count = int(rng.integers(1, 12))
        cell = float(rng.choice([1.0, 0.5, 1 / 3, 0.07, 0.013]))
        sched = ScalarSchedule.piecewise(list(rng.integers(0, 3, count)), cell)
        total = count * cell if rng.random() < 0.5 else float(rng.uniform(0.0, count * cell))
        steps = int(rng.choice([1, 2, 3, int(rng.integers(1, 5000))]))
        assert step_runs(sched, total, steps) == _runs_of_step_cells(sched, total, steps)

    def check(count: int, cell: float, total: float, steps: int) -> None:
        sched = ScalarSchedule.piecewise(list(rng.integers(0, 3, count)), cell)
        total = min(total, sched.extent)
        assert step_runs(sched, total, steps) == _runs_of_step_cells(sched, total, steps)

    # Up to 10^6 steps, to the schedule's end and short of it.
    for steps in (10**4, 999_983, 10**6):
        count = int(rng.integers(2, 64))
        cell = float(rng.choice([1.0, 1 / 3, 0.07]))
        for total in (count * cell, float(rng.uniform(0.5, 1.0)) * count * cell):
            check(count, cell, total, steps)
    # Cell edges exactly on grid nodes (cell = m dt) and on step midpoints
    # (cell = (m + 1/2) dt), on grids short of the end and to it.
    for m in (1, 2, 3, 7, 64):
        for dt in (0.1, 1 / 3, 2.0**-10, float(rng.uniform(1e-3, 1.0))):
            for cell in (m * dt, (m + 0.5) * dt):
                count = int(rng.integers(2, 40))
                steps = int(count * cell / dt) - 2
                check(count, cell, steps * dt, steps)
                check(count, cell, count * cell, int(count * cell / dt))
    # Cells narrower than a step: some hold no step and share a start.
    for ratio in (1.5, 2.0, 3.0, 7.3, 100.0):
        for steps in (2, 5, 17, 1000):
            dt = 0.01
            count = math.ceil(steps * ratio) + 1
            check(count, dt / ratio, steps * dt, steps)

    constant = ScalarSchedule.constant(1.0)
    assert step_runs(constant, 2.0, 10) == [(0, 10, 0)]
    # A grid past the schedule's end is refused.
    with pytest.raises(ScheduleRangeError, match=r"requested \[0, 3.0\]"):
        step_runs(ScalarSchedule.piecewise([1.0], 1.0), 3.0, 10)
    # No runs propagate no step.
    x0 = np.array([1.0, 2.0j])
    [(start, out)] = run_windows(MapPowers(np.empty((0, 2, 2)), 0), [], x0, 1)
    assert start == 0 and np.array_equal(out[:, 1:], x0[:, np.newaxis])


def test_identity_helper() -> None:
    assert np.allclose(identity(3).entries, np.eye(3))


def test_wrap_phase_range_and_identities() -> None:
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_phase(0.3 - 0.1) == pytest.approx(0.2)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-50, 50, size=200):
        w = wrap_phase(x)
        assert -math.pi < w <= math.pi
        assert math.remainder(x - w, math.tau) == pytest.approx(0.0, abs=1e-9)
