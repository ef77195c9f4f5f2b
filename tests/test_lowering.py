"""Lowered models: the stacked lowering of a sweep against one point at a
time, the propagators on a point's rows of a sweep against the same point
lowered alone, piecewise schedules through both ensembles, and the shift
invariances on random small models."""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajphase.dephasing import dephasing_model
from trajphase.jump import (
    StepSizeError,
    _JumpSampler,
    average_jump_ensemble,
    sample_jump_trajectory,
)
from trajphase.lindblad import (
    DensityMatrix,
    LindbladModel,
    ShiftSet,
    apply_shift,
    energy_integral,
    evolve_density,
    evolve_states,
    lindblad_rhs,
    lower_model,
    lower_points,
    lower_sweep,
    shifted_hamiltonian,
    stack_shifts,
)
from trajphase.operators import (
    BlochAngles,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    bloch_state,
    combine,
    identity,
    pauli,
)
from trajphase.qsd import (
    QSDConfig,
    _mean_path_arg,
    averaged_geometric_phase,
    sweep_averaged_phases,
)

EQUATOR = bloch_state(BlochAngles(math.pi / 2, 0.0))
CELL = 0.5
CELLS = 3
SIZES = list(itertools.product((2, 3, 4), (1, 2, 3)))


class Terms(NamedTuple):
    """The matrices of one point in one cell, channels already shifted."""

    h: np.ndarray
    channels: tuple
    k_tilde: np.ndarray
    k: np.ndarray


def _rows(sweep, p: int) -> list[Terms]:
    """Point p of a lowered sweep, cell by cell: its rows of the stacks."""
    stacks = (sweep.channels, sweep.k_tilde, sweep.k)
    return [Terms(h, *(a[p, c] for a in stacks)) for c, h in enumerate(sweep.h)]


def _reference_lowering(model, shifts) -> tuple[tuple[Terms, ...], float | None]:
    """Cell by cell, the lowering that `lower_sweep` broadcasts: each cell's
    terms from its own matrices and shift values, in this order."""
    count = len(model.lindblads)
    lam = model.strength
    one = identity(model.dim).entries

    def build(ham, *rest) -> Terms:
        h = ham.entries
        chans = [c.entries for c in rest[:count]]
        k = h
        if shifts is not None:
            values = [complex(f) for f in rest[count:]]
            for l, f in zip(chans, values):
                k = k - 0.5j * lam * (np.conj(f) * l - f * l.conj().T)
            chans = [l - f * one for l, f in zip(chans, values)]
        adjoints = tuple(l.conj().T for l in chans)
        squares = tuple(ld @ l for l, ld in zip(chans, adjoints))
        k_tilde = h
        for sq in squares:
            k_tilde = k_tilde - 0.5j * lam * sq
        return Terms(h, tuple(chans), k_tilde, k)

    return combine(build, model.hamiltonian, *model.lindblads, *(shifts or ShiftSet(())).shifts)


def _assert_same_terms(got, want) -> None:
    """Terms equal byte for byte, signed zeros included; a tuple of
    channel matrices compares as their (M, d, d) stack."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(a, b):
            u, v = np.asarray(x), np.asarray(y)
            assert u.shape == v.shape and u.tobytes() == v.tobytes()


@st.composite
def sweep_points(draw):
    """Points of one random model (dim 2-4, 1-3 channels, piecewise on 1-3
    cells or constant): each a strength, 0 included, and no shifts,
    constant complex shifts or piecewise complex shifts on the model's
    grid."""
    dim, count, cells = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def schedule(hermitian: bool) -> OperatorSchedule:
        ops = []
        for _ in range(cells):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            ops.append(Operator(m + m.conj().T if hermitian else m))
        return OperatorSchedule.piecewise(ops, CELL) if cells > 1 else OperatorSchedule(ops, None)

    model = LindbladModel(schedule(True), tuple(schedule(False) for _ in range(count)), 0.0)
    points = []
    for kind, strength in draw(
        st.lists(st.tuples(st.sampled_from(["none", "constant", "piecewise"]),
                           st.sampled_from([0.0, 0.3, 1.7])), min_size=1, max_size=6)
    ):
        shifts = None
        if kind != "none":
            values = rng.normal(size=(count, cells)) + 1j * rng.normal(size=(count, cells))
            if kind == "constant" or cells == 1:
                shifts = ShiftSet.constants(values[:, 0])
            else:
                shifts = ShiftSet(tuple(ScalarSchedule.piecewise(v, CELL) for v in values))
        points.append((LindbladModel(model.hamiltonian, model.lindblads, strength), shifts))
    return points


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(sweep_points())
def test_stacked_lowering_equals_one_point_lowering(points) -> None:
    for sweep, members in lower_points(points):
        for row, i in enumerate(members):
            model, shifts = points[i]
            alone, want = lower_model(model, shifts), _reference_lowering(model, shifts)
            assert len(alone) == 1
            assert sweep.grid.cell == alone.grid.cell == want[1]
            assert sweep.strengths[row] == alone.strengths[0] == model.strength
            _assert_same_terms(_rows(sweep, row), _rows(alone, 0))
            _assert_same_terms(_rows(sweep, row), want[0])
    # One lower_sweep call over every shifted point of one kind.
    for kind in (lambda s: s.shifts[0].is_constant, lambda s: not s.shifts[0].is_constant):
        picked = [(m, s) for m, s in points if s is not None and kind(s)]
        if picked:
            values, cell = stack_shifts([s for _, s in picked])
            sweep = lower_sweep(picked[0][0], [m.strength for m, _ in picked], values, cell)
            for p, (model, shifts) in enumerate(picked):
                _assert_same_terms(_rows(sweep, p), _rows(lower_model(model, shifts), 0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(sweep_points())
def test_propagators_read_a_point_as_its_rows(points) -> None:
    # Point p of a multi-point lowering gives every propagator the bytes
    # that the same point lowered alone gives; point p of the master
    # equation propagated, and of its energy integral taken, for every
    # point at once has the bytes of its one-point sweep.
    total, steps = 1.0, 7
    dim = points[0][0].dim
    vec = (np.arange(1.0, dim + 1) + 1j) / np.linalg.norm(np.arange(1.0, dim + 1) + 1j)
    rho0 = DensityMatrix.from_pure(vec)

    def outputs(sweep, p: int) -> list:
        sampler = _JumpSampler(sweep, p, total, steps)
        return [
            evolve_states(sweep, rho0, total, steps)[1][p],
            energy_integral(sweep, vec, total)[p],
            _mean_path_arg(sweep, p, vec, total, steps),
            sampler.runs,
            sampler.powers.square(0),
            sampler.channels,
            sampler.lam_dt,
        ]

    for sweep, members in lower_points(points):
        for row, i in enumerate(members):
            got, want = outputs(sweep, row), outputs(lower_model(*points[i]), 0)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_unshifted_lowering_keeps_signed_zeros(sign) -> None:
    # -sigma_y has a -0 real part: the zero shift through the shifted path
    # leaves H's bits in K, as the plain reference does, and so does an
    # explicit zero shift.
    for h, l in itertools.product("xyz", repeat=2):
        ham, chan = (Operator(sign * pauli(a).entries) for a in (h, l))
        for strength in (0.0, 0.5):
            model = LindbladModel(ham, (chan, chan), strength)
            want = _reference_lowering(model, None)[0]
            _assert_same_terms(_rows(lower_model(model), 0), want)
            zero = ShiftSet.constants([0.0, 0.0])
            _assert_same_terms(_rows(lower_model(model, zero), 0), want)


def test_stack_shifts_takes_none_as_zeros() -> None:
    piecewise = ShiftSet((ScalarSchedule.piecewise([0.3, 1j], CELL), ScalarSchedule.constant(2.0)))
    values, cell = stack_shifts([None, piecewise])
    assert cell == CELL
    assert values.tolist() == [[[0, 0], [0, 0]], [[0.3, 1j], [2.0, 2.0]]]
    values, cell = stack_shifts([None, None])
    assert values.shape == (2, 0, 1) and cell is None
    with pytest.raises(ValueError, match="0 shifts supplied for 1 channels"):
        lower_sweep(dephasing_model(1.0, 0.5), [0.5, 0.5], values, cell)


def test_stacked_lowering_refuses_as_one_point_lowering() -> None:
    model = dephasing_model(1.0, 0.5)
    with pytest.raises(ValueError) as one:
        LindbladModel(model.hamiltonian, model.lindblads, -0.1)
    with pytest.raises(ValueError) as stacked:
        lower_sweep(model, [0.5, -0.1])
    assert str(stacked.value) == str(one.value) == "coupling strength must be nonnegative"
    with pytest.raises(ValueError) as one:
        lower_model(model, ShiftSet.constants([0.1, 0.2]))
    with pytest.raises(ValueError) as stacked:
        lower_sweep(model, [0.5], np.zeros((1, 2, 1), complex))
    assert str(stacked.value) == str(one.value) == "2 shifts supplied for 1 channels"


def test_jump_sampler_reads_channels_in_the_midpoint_cell() -> None:
    # Step 1 runs over [0.5, 1.0]; its midpoint 0.75 lies in cell 1, where
    # the jump probability 0.1 * 0.5 * ||10 sigma_z psi||^2 = 5 exceeds 1.
    zero = Operator(np.zeros((2, 2)))
    strong = Operator(10 * pauli("z").entries)
    channel = OperatorSchedule.piecewise([zero, strong, strong], 0.7)
    model = LindbladModel(OperatorSchedule.constant(pauli("z")), (channel,), 0.1)
    with pytest.raises(StepSizeError, match="at step 1;"):
        sample_jump_trajectory(model, EQUATOR, 2.0, 0.5, np.random.default_rng(0))


def _jump_result(model, shifts):
    res = average_jump_ensemble(model, EQUATOR, 0.5, 1e-2, 64, seed=3, shifts=shifts)
    return res.estimates, res.std_error, res.jump_counts


def _qsd_result(model, shifts):
    config = QSDConfig(total_time=0.5, delta_t=1e-2, n_trajectories=64, seed=3)
    res = averaged_geometric_phase(model, EQUATOR, config, shifts=shifts)
    return res.mean_overlap, res.std_error, res.overlap_arg, res.dynamical_term


@pytest.mark.parametrize("run", [_jump_result, _qsd_result], ids=["jump", "qsd"])
def test_piecewise_shift_of_equal_cells_matches_constant_shift(run) -> None:
    model = dephasing_model(1.0, 0.5)
    piecewise = ShiftSet((ScalarSchedule.piecewise([0.3] * 4, 0.125),))
    got = run(model, piecewise)
    want = run(model, ShiftSet.constants([0.3]))
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_qsd_sweep_points_keep_their_own_strengths() -> None:
    # Each point of a lambda sweep steps its noise with its own strength:
    # the pass gives every point the bits of its model run alone.
    model = dephasing_model(1.0, 0.5)
    config = QSDConfig(total_time=0.5, delta_t=1e-2, n_trajectories=64, seed=3)
    strengths = [0.2, 0.9, 0.0]
    results = sweep_averaged_phases(lower_sweep(model, strengths), EQUATOR, config)
    for lam, got in zip(strengths, results):
        alone = LindbladModel(model.hamiltonian, model.lindblads, lam)
        want = averaged_geometric_phase(alone, EQUATOR, config)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def _random_model(dim: int, count: int, hermitian_channels: bool, rng) -> LindbladModel:
    def matrix() -> np.ndarray:
        return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim

    h = matrix()
    channels = []
    for _ in range(count):
        l = matrix()
        channels.append(Operator(l + l.conj().T if hermitian_channels else l))
    return LindbladModel(Operator(h + h.conj().T), tuple(channels), 0.4)


def _random_shifts(count: int, real: bool, rng) -> ShiftSet:
    def values():
        re = rng.normal(size=CELLS)
        return re if real else re + 1j * rng.normal(size=CELLS)

    return ShiftSet(tuple(ScalarSchedule.piecewise(values(), CELL) for _ in range(count)))


def _random_rho(dim: int, rng) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("dim,count", SIZES)
def test_shift_regroups_into_hamiltonian_in_every_cell(dim: int, count: int) -> None:
    # generator(H, {L - f}) == generator(K, {L}) cell by cell.
    rng = np.random.default_rng(100 + 10 * dim + count)
    model = _random_model(dim, count, False, rng)
    shifts = _random_shifts(count, False, rng)
    shifted = apply_shift(model, shifts)
    regrouped = LindbladModel(shifted_hamiltonian(model, shifts), model.lindblads, model.strength)
    for cell in range(CELLS):
        t = (cell + 0.5) * CELL
        rho = _random_rho(dim, rng)
        a = lindblad_rhs(shifted, rho, t).entries
        b = lindblad_rhs(regrouped, rho, t).entries
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("dim,count", SIZES)
def test_real_shift_of_hermitian_channels_leaves_density_unchanged(dim: int, count: int) -> None:
    rng = np.random.default_rng(200 + 10 * dim + count)
    model = _random_model(dim, count, True, rng)
    shifts = _random_shifts(count, True, rng)
    rho0 = DensityMatrix(_random_rho(dim, rng))
    base = evolve_density(model, rho0, CELLS * CELL, steps=300)
    moved = evolve_density(apply_shift(model, shifts), rho0, CELLS * CELL, steps=300)
    worst = max(
        float(np.max(np.abs(a.entries - b.entries))) for (_, a), (_, b) in zip(base, moved)
    )
    assert worst < 1e-10
