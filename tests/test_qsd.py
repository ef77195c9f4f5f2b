"""Linear diffusive unraveling and its averaged geometric phase."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from trajphase.dephasing import (
    DephasingParams,
    closed_form_dynamical_phase,
    closed_form_overlap_phase,
)
from trajphase.lindblad import DensityMatrix, LindbladModel, ShiftSet, evolve_states, lower_model
from trajphase.operators import (
    BlochAngles,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    bloch_state,
    pauli,
    wrap_phase,
)
from trajphase.qsd import (
    QSDConfig,
    QSDEnsembleResult,
    _energy_trace,
    averaged_geometric_phase,
    averaged_overlap,
    qsd_step,
    wiener_increments,
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


def test_wiener_increment_moments() -> None:
    rng = np.random.default_rng(8)
    dt = 1e-2
    draws = np.array([wiener_increments(1, dt, rng)[0] for _ in range(20000)])
    assert abs(draws.mean()) < 3 * math.sqrt(dt / 20000)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(dt, rel=0.05)
    assert abs(np.mean(draws**2)) < 3 * dt / math.sqrt(20000)
    with pytest.raises(ValueError, match="delta_t"):
        wiener_increments(1, 0.0, rng)


def test_qsd_step_deterministic_part() -> None:
    p = DephasingParams(1.0, 0.0, 0.0, math.pi / 2)
    out = qsd_step(p.as_model(), EQUATOR, 0.0, 1e-3, np.zeros(1))
    h = np.diag([0.5, -0.5])
    want = EQUATOR.amplitudes - 1e-3 * 1j * (h @ EQUATOR.amplitudes)
    assert np.max(np.abs(out.amplitudes - want)) < 1e-15


def test_qsd_step_is_linear() -> None:
    p = DephasingParams(1.0, 0.4, 0.3, math.pi / 3)
    model, shifts = p.as_model(), p.as_shifts()
    rng = np.random.default_rng(2)
    dw = wiener_increments(1, 1e-2, rng)
    a = qsd_step(model, EQUATOR, 0.0, 1e-2, dw, shifts).amplitudes
    scaled = qsd_step(model, 0.7j * EQUATOR.amplitudes, 0.0, 1e-2, dw, shifts).amplitudes
    assert np.max(np.abs(scaled - 0.7j * a)) < 1e-15


def test_qsd_step_requires_one_increment_per_channel() -> None:
    p = DephasingParams(1.0, 0.4, 0.0, math.pi / 2)
    with pytest.raises(ValueError, match="increment"):
        qsd_step(p.as_model(), EQUATOR, 0.0, 1e-2, np.zeros(2))


def test_qsd_step_mean_follows_drift() -> None:
    # Averaging the stochastic step over many draws recovers the Euler
    # drift step to Monte Carlo accuracy.
    p = DephasingParams(1.0, 0.5, 0.0, math.pi / 2)
    model = p.as_model()
    dt = 1e-2
    rng = np.random.default_rng(4)
    n = 40000
    acc = np.zeros(2, dtype=complex)
    for _ in range(n):
        acc += qsd_step(model, EQUATOR, 0.0, dt, wiener_increments(1, dt, rng)).amplitudes
    drift = qsd_step(model, EQUATOR, 0.0, dt, np.zeros(1)).amplitudes
    noise_scale = math.sqrt(model.strength * dt / n)
    assert np.max(np.abs(acc / n - drift)) < 4 * noise_scale


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
    # After a full period the raw argument folds to +pi; checkpoint tracking
    # must continue to about -pi for a mostly-north initial state.
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
    # 66 periods at lambda = 0: with 64 fixed checkpoints each interval turns
    # the overlap by more than pi and the unwrapped phase came out 64 * 2 pi
    # too high; the interval count now grows with T times the drift's norm.
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
    cfg = QSDConfig(24.0, 0.1, 16, seed=0)
    with pytest.warns(RuntimeWarning, match="excluded"):
        got, _ = averaged_overlap(p.as_model(), EQUATOR, cfg)
    assert np.isfinite(got.real) and np.isfinite(got.imag)


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


def test_energy_trace_matches_per_state_trace() -> None:
    # A piecewise Hamiltonian and shift, so the runs of cells matter.
    rng = np.random.default_rng(17)
    ham = OperatorSchedule.piecewise([pauli("x"), 0.5 * pauli("z"), pauli("y")], 0.5)
    chan = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    model = LindbladModel(ham, (chan,), 0.3)
    shifts = ShiftSet((ScalarSchedule.piecewise([0.2, 0.3 - 0.4j, -0.5j], 0.5),))
    lowered = lower_model(model, shifts)
    times, rhos = evolve_states(lowered, DensityMatrix.from_pure(EQUATOR), 1.5, 300)
    cells = lowered.cells_at(times).tolist()
    want = np.array(
        [np.trace(rho @ lowered.values[c].k).real for c, rho in zip(cells, rhos)]
    )
    got = _energy_trace(lowered, times, rhos)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert len(set(cells)) == 3
