"""No-jump propagation, tracked geometric phase, and the jump unraveling."""

from __future__ import annotations

import math

import numpy as np
import pytest

import trajphase.jump
from trajphase.dephasing import (
    DephasingParams,
    bloch_spiral,
    closed_form_no_jump_phase,
    closed_form_survival,
    decay_model,
    dephasing_model,
)
from trajphase.jump import (
    BranchTrackingError,
    JumpEvent,
    StepSizeError,
    TotalDecayError,
    TrajectoryRecord,
    average_jump_ensemble,
    connection_unitarity_residual,
    gauge_transform_check,
    kraus_connection_matrix,
    kraus_maps_equal,
    kraus_set,
    no_jump_geometric_phase,
    no_jump_hamiltonian,
    no_jump_probability,
    propagate_no_jump,
    sample_jump_trajectory,
    shifted_no_jump_hamiltonian,
)
from trajphase.lindblad import (
    DensityMatrix,
    LindbladModel,
    ShiftSet,
    apply_shift,
    evolve_density,
)
from trajphase.operators import (
    BlochAngles,
    Operator,
    PureState,
    bloch_angles,
    bloch_state,
    pauli,
    wrap_phase,
)

OMEGA = 1.0
EQUATOR = bloch_state(BlochAngles(math.pi / 2, 0.0))


def test_trajectory_record_validation() -> None:
    times = np.linspace(0.0, 1.0, 5)
    states = np.tile([1.0 + 0j, 0.0], (5, 1))
    with pytest.raises(ValueError, match="matching lengths"):
        TrajectoryRecord(times, states[:4], (), 1.0)
    with pytest.raises(ValueError, match="time-ordered"):
        TrajectoryRecord(
            times, states, (JumpEvent(0.5, 0), JumpEvent(0.5, 0)), 0.0
        )
    rec = TrajectoryRecord(times, states, (), 1.0)
    assert rec.final_state.norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rec.states[0, 0] = 2.0


def test_no_jump_generator_entries() -> None:
    # K_tilde = H - (i lam / 2) sum L^dag L; for the sigma_z channel the
    # decay part is proportional to the identity.
    lam = 0.4
    gen = no_jump_hamiltonian(dephasing_model(OMEGA, lam)).value_at(0.0)
    want = 0.5 * OMEGA * pauli("z").entries - 0.5j * lam * np.eye(2)
    assert np.max(np.abs(gen.entries - want)) < 1e-15


def test_shifted_generator_equals_generator_of_shifted_model() -> None:
    rng = np.random.default_rng(3)
    model = LindbladModel(pauli("z"), (pauli("z"), Operator([[0, 0], [2, 0]])), 0.6)
    for _ in range(15):
        f = tuple(complex(rng.normal(), rng.normal()) for _ in range(2))
        shifts = ShiftSet.constants(f)
        a = shifted_no_jump_hamiltonian(model, shifts).value_at(0.0).entries
        b = no_jump_hamiltonian(apply_shift(model, shifts)).value_at(0.0).entries
        assert np.max(np.abs(a - b)) < 1e-14


def test_propagate_no_jump_plain_dephasing() -> None:
    # Without a shift the decay is uniform: psi(t) = e^{-lam t / 2}
    # e^{-i (omega/2) sigma_z t} psi0.
    lam, total = 0.5, 3.0
    rec = propagate_no_jump(
        no_jump_hamiltonian(dephasing_model(OMEGA, lam)), EQUATOR, total, steps=512
    )
    assert rec.survival == pytest.approx(math.exp(-lam * total), rel=1e-10)
    assert no_jump_probability(rec) == rec.survival
    damp = math.exp(-lam * total / 2) / math.sqrt(2)
    want = damp * np.array(
        [np.exp(-0.5j * OMEGA * total), np.exp(0.5j * OMEGA * total)]
    )
    assert np.max(np.abs(rec.final_state.amplitudes - want)) < 1e-10


def test_propagate_no_jump_follows_bloch_spiral() -> None:
    params = DephasingParams(OMEGA, 0.1, 2.0, math.pi / 3)
    model = params.as_model()
    gen = shifted_no_jump_hamiltonian(model, params.as_shifts())
    rec = propagate_no_jump(gen, bloch_state(params.initial_state()), 4.0, steps=2048)
    for k in (512, 1024, 2048):
        got = bloch_angles(PureState(rec.states[k]))
        want = bloch_spiral(params, float(rec.times[k]))
        assert got.theta == pytest.approx(want.theta, abs=1e-8)
        assert wrap_phase(got.phi - want.phi) == pytest.approx(0.0, abs=1e-8)
    assert rec.survival == pytest.approx(
        closed_form_survival(params, 4.0), rel=1e-7
    )


def test_propagate_no_jump_validation() -> None:
    gen = no_jump_hamiltonian(dephasing_model(OMEGA, 0.5))
    with pytest.raises(ValueError, match="steps"):
        propagate_no_jump(gen, EQUATOR, 1.0, steps=0)
    with pytest.raises(ValueError, match="total_time"):
        propagate_no_jump(gen, EQUATOR, -1.0)
    with pytest.raises(ValueError, match="dimension"):
        propagate_no_jump(gen, np.array([1.0, 0.0, 0.0]), 1.0)


def test_propagate_no_jump_total_decay() -> None:
    gen = no_jump_hamiltonian(dephasing_model(OMEGA, 1.0))
    with pytest.raises(TotalDecayError, match="underflowed"):
        propagate_no_jump(gen, EQUATOR, 800.0, steps=1024)


def test_propagate_no_jump_floor_is_relative_to_the_initial_norm() -> None:
    # The squares of 3.55e-281 underflow; the norm floor must still compare
    # with the initial norm rather than call the state decayed at t = 0.
    gen = no_jump_hamiltonian(dephasing_model(OMEGA, 1.0))
    tiny = propagate_no_jump(gen, np.array([0.0, 3.55e-281]), 1.0, 16)
    unit = propagate_no_jump(gen, np.array([0.0, 1.0]), 1.0, 16)
    assert tiny.survival == pytest.approx(unit.survival, rel=1e-14)
    assert unit.survival == pytest.approx(math.exp(-1.0), rel=1e-12)
    # The record keeps the states at the scale they were given.
    assert np.max(np.abs(tiny.states / 3.55e-281 - unit.states)) <= 1e-14


def test_no_jump_probability_rejects_jump_records() -> None:
    times = np.array([0.0, 1.0])
    states = np.array([[1, 0], [0, 1]], dtype=complex)
    rec = TrajectoryRecord(times, states, (JumpEvent(0.5, 0),), 0.0)
    with pytest.raises(ValueError, match="jumps"):
        no_jump_probability(rec)


def test_geometric_phase_closed_system_solid_angle() -> None:
    # One full precession encloses a cap of solid angle 2 pi (1 - cos theta0).
    theta0 = math.pi / 3
    model = dephasing_model(OMEGA, 0.0)
    res = no_jump_geometric_phase(
        model, bloch_state(BlochAngles(theta0, 0.0)), 2 * math.pi / OMEGA
    )
    assert res.phase == pytest.approx(-math.pi * (1 - math.cos(theta0)), abs=1e-9)
    assert res.phase == pytest.approx(res.overlap_arg + res.dynamical_term)
    assert res.final_norm == pytest.approx(1.0, abs=1e-10)
    assert res.branch_crossings == ()


def test_geometric_phase_requires_normalized_state() -> None:
    model = dephasing_model(OMEGA, 0.0)
    with pytest.raises(ValueError, match="normalized"):
        no_jump_geometric_phase(model, np.array([2.0, 0.0]), 1.0)


def test_geometric_phase_matches_closed_form_spot_value() -> None:
    params = DephasingParams(OMEGA, 0.1, 2.0, math.pi / 2)
    res = no_jump_geometric_phase(
        params.as_model(),
        bloch_state(params.initial_state()),
        params.period,
        shifts=params.as_shifts(),
    )
    want = closed_form_no_jump_phase(params)
    assert want == pytest.approx(-math.pi + 1.25 * math.log(math.cosh(0.8 * math.pi)))
    assert abs(wrap_phase(res.phase - want)) < 1e-9


def test_geometric_phase_refines_coarse_grids() -> None:
    # Three steps over two closed-system periods rotate the overlap by
    # 2 pi / 3 per step, violating the half-turn bound; the tracker must
    # refine and still land on twice the one-period cap phase.
    theta0 = math.pi / 3
    model = dephasing_model(OMEGA, 0.0)
    res = no_jump_geometric_phase(
        model, bloch_state(BlochAngles(theta0, 0.0)), 4 * math.pi / OMEGA, steps=3
    )
    assert res.grid_steps > 3
    want = -2 * math.pi * (1 - math.cos(theta0))
    assert abs(wrap_phase(res.phase - want)) < 1e-9


def test_geometric_phase_flags_interior_crossing() -> None:
    # Plain dephasing from the equator: the overlap crosses zero at
    # omega t = pi; the run completes and reports the crossing time.
    model = dephasing_model(OMEGA, 0.5)
    res = no_jump_geometric_phase(model, EQUATOR, 2 * math.pi / OMEGA)
    assert len(res.branch_crossings) == 1
    assert res.branch_crossings[0] == pytest.approx(math.pi, abs=1e-3)
    assert abs(wrap_phase(res.phase - math.pi)) < 1e-9


def test_geometric_phase_rejects_vanishing_endpoint_overlap() -> None:
    model = dephasing_model(OMEGA, 0.5)
    with pytest.raises(BranchTrackingError, match="endpoint"):
        no_jump_geometric_phase(model, EQUATOR, math.pi / OMEGA)


def test_geometric_phase_reports_refinement_failure(monkeypatch) -> None:
    monkeypatch.setattr(trajphase.jump, "MAX_GRID_DOUBLINGS", 0)
    model = dephasing_model(OMEGA, 0.1)
    with pytest.raises(BranchTrackingError, match="refining"):
        no_jump_geometric_phase(
            model, EQUATOR, 2 * math.pi / OMEGA, steps=2, shifts=ShiftSet.constants([2.0])
        )


def test_gauge_transform_invariance() -> None:
    model = dephasing_model(OMEGA, 0.3)
    theta0 = math.pi / 3
    psi0 = bloch_state(BlochAngles(theta0, 0.0))
    base, transformed = gauge_transform_check(
        model,
        psi0,
        2 * math.pi / OMEGA,
        log_rate=0.3 + 0.7j,
        scale=2.0 * np.exp(0.5j),
        shifts=ShiftSet.constants([0.2]),
    )
    assert abs(wrap_phase(transformed - base)) < 1e-10
    with pytest.raises(ValueError, match="nonzero"):
        gauge_transform_check(model, psi0, 1.0, scale=0.0)


def test_sample_trajectory_reproducible_and_normalized() -> None:
    model = dephasing_model(OMEGA, 0.5)
    recs = [
        sample_jump_trajectory(
            model, EQUATOR, 2.0, 1e-2, np.random.default_rng(11)
        )
        for _ in range(2)
    ]
    assert np.array_equal(recs[0].states, recs[1].states)
    assert recs[0].jumps == recs[1].jumps
    norms = np.linalg.norm(recs[0].states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert recs[0].survival == (1.0 if not recs[0].jumps else 0.0)
    assert all(event.channel == 0 for event in recs[0].jumps)


def test_tiny_initial_amplitudes_are_not_a_zero_vector() -> None:
    # 3.55e-281 squared underflows to 0; the state is still |0>, which decays.
    model = decay_model(OMEGA, 0.5)
    tiny, pole = np.array([3.55e-281, 0.0]), np.array([1.0, 0.0])
    runs = [
        sample_jump_trajectory(model, psi, 2.0, 1e-2, np.random.default_rng(5))
        for psi in (tiny, pole)
    ]
    assert runs[0].states.tobytes() == runs[1].states.tobytes()
    assert runs[0].jumps == runs[1].jumps
    assert runs[0].jumps


def test_sample_trajectory_warns_on_crude_step() -> None:
    model = dephasing_model(OMEGA, 30.0)
    with pytest.warns(RuntimeWarning, match="first-order"):
        sample_jump_trajectory(model, EQUATOR, 0.1, 1e-2, np.random.default_rng(0))


def test_sample_trajectory_rejects_certain_jumps() -> None:
    # A large hidden shift inflates ||(L - f) psi||^2 until the first-order
    # probability leaves [0, 1].
    model = dephasing_model(OMEGA, 1.0)
    with pytest.raises(StepSizeError, match="reduce delta_t"):
        sample_jump_trajectory(
            model,
            EQUATOR,
            0.5,
            1e-2,
            np.random.default_rng(0),
            shifts=ShiftSet.constants([30.0]),
        )


def test_ensemble_recovers_density_evolution() -> None:
    lam, total, dt, n = 0.5, 2.0, 1e-2, 600
    model = dephasing_model(OMEGA, lam)
    res = average_jump_ensemble(model, EQUATOR, total, dt, n, seed=7)
    assert res.n_trajectories == n
    assert res.jump_counts.shape == (n,)
    exact = evolve_density(
        model, DensityMatrix.from_pure(EQUATOR), total, steps=200
    )[-1][1].entries
    gap = np.abs(res.estimates[-1] - exact)
    limit = 3 * res.std_error[-1] + 1e-12
    assert np.all(gap <= limit)
    # Jump counts are Poisson with mean lam * total under sigma_z monitoring.
    assert res.mean_jumps == pytest.approx(
        lam * total, abs=3 * res.mean_jumps_error
    )
    assert res.mean_jumps == pytest.approx(res.jump_counts.mean())


def test_ensemble_without_jumps_has_no_spread() -> None:
    # At strength 0 every trajectory is the same unitary path. Raw sums of
    # |x|^2 less |mean|^2 cancelled to a standard error of 1.8e-9 here.
    h = 0.5 * pauli("z") + 0.3 * pauli("x")
    model = LindbladModel(h, (pauli("z"),), 0.0)
    phi0 = bloch_state(BlochAngles(math.pi / 3, 0.2))
    res = average_jump_ensemble(model, phi0, 2.0, 1e-2, 100, seed=3)
    assert res.jump_counts.sum() == 0
    assert res.std_error.max() <= 1e-15
    assert res.mean_jumps_error == 0.0


def test_ensemble_deterministic_across_thread_counts(monkeypatch) -> None:
    model = dephasing_model(OMEGA, 0.5)
    outs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        outs.append(
            average_jump_ensemble(
                model, EQUATOR, 1.0, 1e-2, 64, seed=5, chunk_size=16
            )
        )
    assert np.array_equal(outs[0].estimates, outs[1].estimates)
    assert np.array_equal(outs[0].jump_counts, outs[1].jump_counts)


def test_ensemble_validation() -> None:
    model = dephasing_model(OMEGA, 0.5)
    with pytest.raises(ValueError, match="n_trajectories"):
        average_jump_ensemble(model, EQUATOR, 1.0, 1e-2, 0, seed=0)


def test_kraus_completeness_residual_is_second_order() -> None:
    model = dephasing_model(OMEGA, 0.5)
    shifts = ShiftSet.constants([0.2])
    r1 = kraus_set(model, 1e-3, shifts).completeness_residual()
    r2 = kraus_set(model, 5e-4, shifts).completeness_residual()
    assert r1 == pytest.approx(4 * r2, rel=1e-3)
    assert r1 < 1e-5


def test_kraus_set_contents() -> None:
    lam, dt = 0.5, 1e-3
    model = dephasing_model(OMEGA, lam)
    ks = kraus_set(model, dt, ShiftSet.constants([0.2]))
    assert len(ks.ops) == 2
    root = math.sqrt(lam * dt)
    want = root * (pauli("z").entries - 0.2 * np.eye(2))
    assert np.max(np.abs(ks.ops[1].entries - want)) < 1e-15
    closed = kraus_set(dephasing_model(OMEGA, 0.0), dt)
    assert len(closed.ops) == 1
    with pytest.raises(ValueError, match="delta_t"):
        kraus_set(model, 0.0)


def test_connection_matrix_unitarity_defect_is_exact() -> None:
    # W^dag W - 1 has a single nonzero entry, strength * delta_t * |f|^2,
    # sitting in the no-jump slot.
    lam, f = 0.5, 0.2
    for dt in (1e-3, 2.5e-4):
        w = kraus_connection_matrix(ShiftSet.constants([f]), lam, dt)
        assert connection_unitarity_residual(w) == pytest.approx(
            lam * dt * f**2, rel=1e-9
        )


def test_connection_matrix_relates_kraus_sets() -> None:
    lam, f, dt = 0.5, 0.2, 1e-6
    model = dephasing_model(OMEGA, lam)
    shifts = ShiftSet.constants([f])
    shifted = kraus_set(model, dt, shifts)
    plain = kraus_set(model, dt)
    w = kraus_connection_matrix(shifts, lam, dt)
    worst = 0.0
    for mu in range(2):
        combo = sum(w[mu, nu] * plain.ops[nu].entries for nu in range(2))
        worst = max(worst, float(np.max(np.abs(shifted.ops[mu].entries - combo))))
    assert worst < 1e-10


def test_kraus_maps_agree_for_hidden_shifts() -> None:
    model = dephasing_model(OMEGA, 0.5)
    shifts = ShiftSet.constants([0.2])
    rho = DensityMatrix.from_pure(EQUATOR)
    d1 = kraus_maps_equal(model, shifts, 1e-3, rho)
    d2 = kraus_maps_equal(model, shifts, 5e-4, rho)
    assert d1 == pytest.approx(4 * d2, rel=1e-2)
    assert d1 < 1e-6
    decay = LindbladModel(pauli("z"), (Operator([[0, 0], [2, 0]]),), 0.5)
    with pytest.raises(ValueError, match="hidden"):
        kraus_maps_equal(decay, ShiftSet.constants([0.3]), 1e-3, rho)


def test_ensemble_refuses_a_negative_seed() -> None:
    model = dephasing_model(OMEGA, 0.5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        average_jump_ensemble(model, EQUATOR, 1.0, 1e-2, 4, seed=-3)
