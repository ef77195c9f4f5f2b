"""Lowered models: piecewise schedules through both ensembles, and the shift
invariances on random small models."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from trajphase.dephasing import dephasing_model
from trajphase.jump import StepSizeError, average_jump_ensemble, sample_jump_trajectory
from trajphase.lindblad import (
    DensityMatrix,
    LindbladModel,
    ShiftSet,
    apply_shift,
    evolve_density,
    lindblad_rhs,
    shifted_hamiltonian,
)
from trajphase.operators import (
    BlochAngles,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    bloch_state,
    pauli,
)
from trajphase.qsd import QSDConfig, averaged_geometric_phase

EQUATOR = bloch_state(BlochAngles(math.pi / 2, 0.0))
CELL = 0.5
CELLS = 3
SIZES = list(itertools.product((2, 3, 4), (1, 2, 3)))


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
