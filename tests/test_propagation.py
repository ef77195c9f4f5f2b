"""Run-based propagation against step-by-step reference loops.

`operators.run_states`, `jump.propagate_no_jump`, `lindblad.evolve_lowered`
and `operators.time_ordered_propagator` advance runs of steps in one cell by
powers of the cell's map. These tests compare them with the plain per-step
products they replace, on seeded random non-normal generators and on grids
whose steps do not line up with the cells.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from trajphase import (
    DensityMatrix,
    IntegrationError,
    LindbladModel,
    Operator,
    OperatorSchedule,
    evolve_density,
    lindblad_rhs,
    pauli,
    propagate_no_jump,
    time_ordered_propagator,
)
from trajphase.lindblad import POSITIVITY_HARD_TOL, POSITIVITY_TOL
from trajphase.operators import run_states, step_propagators

STATE_RTOL = 1e-12
RHO_ATOL = 1e-12
PRODUCT_RTOL = 1e-12
EIGENVALUE_RTOL = 1e-9


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


def _loop_states(maps, keys, x0):
    states = [np.asarray(x0, dtype=complex)]
    for key in keys:
        states.append(maps[key] @ states[-1])
    return np.array(states)


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
    maps, keys = step_propagators(sched, 0.0, total, steps)
    x0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    got = run_states(maps, keys, x0)
    want = _loop_states(maps, keys.tolist(), x0)
    assert got.shape == (steps + 1, dim)
    assert np.max(_relative_errors(got, want)) <= STATE_RTOL


def test_run_states_defective_map() -> None:
    # A Jordan block has no eigenbasis; powers are still plain products.
    jordan = np.array([[0.99, 1.0], [0.0, 0.99]], dtype=complex)
    rotation = scipy.linalg.expm(-0.1j * pauli("x").entries)
    keys = np.array([0] * 45 + [1] * 3 + [0] * 17)
    x0 = np.array([0.3, 1.0], dtype=complex)
    got = run_states([jordan, rotation], keys, x0)
    want = _loop_states([jordan, rotation], keys.tolist(), x0)
    assert np.max(_relative_errors(got, want)) <= STATE_RTOL


def test_run_states_without_steps() -> None:
    x0 = np.array([1.0, 2.0j])
    got = run_states({}, np.zeros(0, dtype=int), x0)
    assert np.array_equal(got, x0[np.newaxis, :])


@pytest.mark.parametrize("seed", range(4))
def test_propagate_no_jump_matches_step_loop(seed) -> None:
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(2, 5))
    sched = _random_schedule(rng, dim, int(rng.integers(1, 17)), 3.0)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    record = propagate_no_jump(sched, psi0, 3.0, steps=1000)
    maps, keys = step_propagators(sched, 0.0, 3.0, 1000)
    want = _loop_states(maps, keys.tolist(), psi0)
    assert np.max(_relative_errors(record.states, want)) <= STATE_RTOL


@pytest.mark.parametrize("seed", range(4))
def test_time_ordered_propagator_matches_explicit_product(seed) -> None:
    rng = np.random.default_rng(200 + seed)
    dim = int(rng.integers(2, 5))
    sched = _random_schedule(rng, dim, int(rng.integers(2, 9)), 2.0)
    t0, t1, steps = 0.13, 1.91, 173
    dt = (t1 - t0) / steps
    want = np.eye(dim, dtype=complex)
    for k in range(steps):
        mid = t0 + (k + 0.5) * dt
        want = scipy.linalg.expm(-1j * dt * sched.value_at(mid).entries) @ want
    got = time_ordered_propagator(sched, t0, t1, steps=steps).entries
    assert np.max(np.abs(got - want)) <= PRODUCT_RTOL * np.max(np.abs(want))


def _reference_evolve(model, rho0, total_time, steps):
    """Fixed-step RK4 on rho, one step at a time: stage one reads the cell of
    the step start, the middle stages the step's midpoint cell, stage four
    the cell of the step end. Checks every state as it goes."""
    dt = total_time / steps

    def rhs(t, rho):
        return lindblad_rhs(model, rho, t).entries

    rho = rho0.entries.copy()
    out = [(0.0, rho0)]
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        rho = 0.5 * (rho + rho.conj().T)
        t_next = (k + 1) * dt
        try:
            state = DensityMatrix(rho)
        except ValueError as exc:
            raise IntegrationError(f"step {k + 1} (t = {t_next:g}): {exc}") from exc
        low = float(np.min(np.linalg.eigvalsh(rho)))
        if low < -POSITIVITY_HARD_TOL:
            raise IntegrationError(
                f"step {k + 1} (t = {t_next:g}): eigenvalue {low} below -{POSITIVITY_HARD_TOL}"
            )
        if low < -POSITIVITY_TOL:
            warnings.warn(
                f"density eigenvalue {low} at step {k + 1} is beyond roundoff",
                RuntimeWarning,
            )
        out.append((t_next, state))
    return out


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
def test_evolve_density_matches_rk4_loop(seed) -> None:
    rng = np.random.default_rng(300 + seed)
    dim = int(rng.integers(2, 4))
    total, steps = 3.0, 70
    # Switches at t = 1 and t = 2 fall inside steps 23 and 46.
    model = _random_piecewise_model(rng, dim, 3, total)
    rho0 = _random_rho(rng, dim)
    got = evolve_density(model, rho0, total, steps=steps)
    want = _reference_evolve(model, rho0, total, steps)
    assert [t for t, _ in got] == [t for t, _ in want]
    worst = max(np.max(np.abs(a.entries - b.entries)) for (_, a), (_, b) in zip(got, want))
    assert worst <= RHO_ATOL


def _dephasing(strength, omega=1.0):
    return LindbladModel(
        Operator(0.5 * omega * pauli("z").entries),
        (OperatorSchedule.constant(pauli("z")),),
        strength,
    )


EQUATOR = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def _failure(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationError) as info:
            run()
    return str(info.value), [str(w.message) for w in caught]


def test_integration_error_names_the_reference_step() -> None:
    model = _dephasing(40.0)
    got = _failure(lambda: evolve_density(model, EQUATOR, 2.0, steps=4))
    want = _failure(lambda: _reference_evolve(model, EQUATOR, 2.0, 4))
    assert got == want


_WARNING = re.compile(r"density eigenvalue (\S+) at step (\d+) is beyond roundoff")


def test_positivity_warnings_keep_their_text() -> None:
    # Closed system with omega * dt just past RK4's stability limit 2 sqrt 2
    # on the imaginary axis: the coherence grows by about 1e-8 per step, so
    # the low eigenvalue warns from step 1 and crosses the hard limit later.
    steps = 400
    omega = (2.0 * math.sqrt(2.0) + 4e-9) * steps / 2.0
    model = _dephasing(0.0, omega)
    got_error, got = _failure(lambda: evolve_density(model, EQUATOR, 2.0, steps=steps))
    want_error, want = _failure(lambda: _reference_evolve(model, EQUATOR, 2.0, steps))
    assert got_error.split(":")[0] == want_error.split(":")[0]
    assert len(want) > 100
    assert len(got) == len(want)
    for a, b in zip(got, want):
        ma, mb = _WARNING.fullmatch(a), _WARNING.fullmatch(b)
        assert ma and mb
        assert ma.group(2) == mb.group(2)
        assert float(ma.group(1)) == pytest.approx(float(mb.group(1)), rel=EIGENVALUE_RTOL)


def test_blow_up_raises_without_numpy_warnings() -> None:
    # |R(3i)| ~ 1.5 per step: left alone the states overflow long before the
    # last step; the error must come from the check, with no overflow warning.
    steps = 4000
    model = _dephasing(0.0, 3.0 * steps / 2.0)
    message, caught = _failure(lambda: evolve_density(model, EQUATOR, 2.0, steps=steps))
    assert message.startswith("step 1 (t = ")
    assert caught == []

