"""Master-equation integration and the channel-shift transformations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from trajphase.lindblad import (
    DensityMatrix,
    LindbladModel,
    ShiftSet,
    _liouvillian,
    apply_shift,
    apply_unitary_mixing,
    evolve_density,
    lindblad_rhs,
    lower_model,
    shift_is_hidden,
    shifted_hamiltonian,
    zero_point_shift,
)
from trajphase.operators import (
    BlochAngles,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    bloch_state,
    pauli,
)

OMEGA = 1.0


def _dephasing(strength: float, omega: float = OMEGA) -> LindbladModel:
    h = Operator(0.5 * omega * pauli("z").entries)
    return LindbladModel(OperatorSchedule.constant(h), (OperatorSchedule.constant(pauli("z")),), strength)


def _equator_rho() -> DensityMatrix:
    return DensityMatrix.from_pure(bloch_state(BlochAngles(math.pi / 2, 0.0)))


def _random_rho(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_model_refuses_a_non_hermitian_hamiltonian() -> None:
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian in cell 0"):
        LindbladModel(Operator(np.array([[0, 1], [0, 0]])), (pauli("z"),), 0.1)
    ham = OperatorSchedule.piecewise(
        [pauli("x"), Operator(np.array([[1, 1j], [1j, 0]])), pauli("z")], 0.5
    )
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian in cell 1"):
        LindbladModel(ham, (pauli("z"),), 0.1)
    # Roundoff-sized asymmetry at a large scale is still Hermitian.
    big = 1e6 * pauli("x").entries
    big[0, 1] += 1e-7
    LindbladModel(Operator(big), (pauli("z"),), 0.1)


def test_density_matrix_validation() -> None:
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="square"):
        DensityMatrix(np.ones((2, 3)) / 3)
    rho = DensityMatrix.maximally_mixed(3)
    assert rho.dim == 3
    rho.validate()
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite_entries(bad) -> None:
    entries = np.eye(2, dtype=complex) / 2
    entries[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(entries)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.full((2, 2), bad))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix.from_pure(np.array([1.0, bad]))


def test_density_matrix_validate_flags_negative_eigenvalue() -> None:
    bad = DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        bad.validate()


def test_from_pure_normalizes() -> None:
    rho = DensityMatrix.from_pure([2.0, 0.0])
    assert rho.entries[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityMatrix.from_pure([0.0, 0.0])
    # 3.55e-281 squared underflows to 0; the state is still |1>.
    rho = DensityMatrix.from_pure([0.0, 3.55e-281])
    assert rho.entries.tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_model_validation() -> None:
    with pytest.raises(ValueError, match="nonnegative"):
        _dephasing(-0.1)
    with pytest.raises(ValueError, match="dimension"):
        LindbladModel(
            OperatorSchedule.constant(pauli("z")),
            (OperatorSchedule.constant(Operator(np.eye(3))),),
            1.0,
        )
    # Bare operators are accepted and coerced to constant schedules.
    model = LindbladModel(pauli("z"), (pauli("x"),), 0.5)
    assert model.hamiltonian.is_constant
    assert model.dim == 2


def test_rhs_is_traceless_hermitian() -> None:
    rng = np.random.default_rng(5)
    model = LindbladModel(pauli("z"), (pauli("z"), Operator([[0, 0], [2, 0]])), 0.7)
    for _ in range(20):
        rhs = lindblad_rhs(model, _random_rho(rng)).entries
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12


def test_rhs_closed_system_is_commutator() -> None:
    model = _dephasing(0.0)
    rho = _equator_rho()
    rhs = lindblad_rhs(model, rho).entries
    h = 0.5 * OMEGA * pauli("z").entries
    want = -1j * (h @ rho.entries - rho.entries @ h)
    assert np.max(np.abs(rhs - want)) < 1e-14


def test_dephasing_coherence_decay_rate() -> None:
    # d rho01 / dt = -(i omega + 2 lam) rho01 for the sigma_z channel.
    lam = 0.35
    model = _dephasing(lam)
    rho = _equator_rho()
    rhs = lindblad_rhs(model, rho).entries
    assert rhs[0, 1] == pytest.approx(-(1j * OMEGA + 2 * lam) * rho.entries[0, 1])


def test_evolve_density_matches_closed_form() -> None:
    lam = 0.3
    total = 2.0
    model = _dephasing(lam)
    samples = evolve_density(model, _equator_rho(), total, steps=2048)
    assert len(samples) == 2049
    for t, rho in samples[:: 256]:
        want = 0.5 * np.exp(-(2 * lam + 1j * OMEGA) * t)
        assert abs(rho.entries[0, 1] - want) < 1e-10
        assert rho.entries[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_evolve_density_pole_is_stationary() -> None:
    model = _dephasing(0.8)
    rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    samples = evolve_density(model, rho0, 3.0, steps=512)
    assert np.max(np.abs(samples[-1][1].entries - rho0.entries)) < 1e-14


def test_evolve_density_piecewise_hamiltonian() -> None:
    # Two cells omega = 1 then omega = 3; the coherence phase integrates
    # omega(t). Every grid below lines up with the switch at t = 1, so each
    # step is the exact map of its cell, however coarse.
    total = 2.0
    cells = [Operator(0.5 * w * pauli("z").entries) for w in (1.0, 3.0)]
    ham = OperatorSchedule.piecewise(cells, 1.0)
    model = LindbladModel(ham, (OperatorSchedule.constant(pauli("z")),), 0.0)
    rho0 = DensityMatrix(0.98 * _equator_rho().entries + 0.02 * np.eye(2) / 2)
    want = 0.98 * 0.5 * np.exp(-1j * (1.0 + 3.0))
    for steps in (2, 4, 2048):
        samples = evolve_density(model, rho0, total, steps=steps)
        assert samples[-1][1].entries[0, 1] == pytest.approx(want, rel=0.0, abs=1e-12)


def test_evolve_density_trace_and_positivity_hold() -> None:
    model = LindbladModel(pauli("z"), (Operator([[0, 0], [2, 0]]),), 0.6)
    samples = evolve_density(model, _equator_rho(), 4.0, steps=1024)
    for _, rho in samples[:: 128]:
        rho.validate()


def test_evolve_density_is_exact_on_a_coarse_grid() -> None:
    # lambda dt = 20, far beyond any fixed-step integrator's reach: the
    # per-cell maps still give the closed form and physical states.
    lam = 40.0
    samples = evolve_density(_dephasing(lam), _equator_rho(), 2.0, steps=4)
    for t, rho in samples:
        want = 0.5 * np.exp(-(2 * lam + 1j * OMEGA) * t)
        assert abs(rho.entries[0, 1] - want) <= 1e-12
        rho.validate()


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_liouvillian_equals_its_kron_form(dim, count) -> None:
    # The broadcast outer products must give np.kron's entries, added in
    # the same order, to the last bit; shifted channels and an inf entry
    # included.
    rng = np.random.default_rng(10 * dim + count)

    def rand():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    h = rand()
    channels = tuple(Operator(rand()) for _ in range(count))
    model = LindbladModel(Operator(h + h.conj().T), channels, 0.7)
    shifts = ShiftSet.constants(list(rng.normal(size=count) + 1j * rng.normal(size=count)))
    for sweep in (lower_model(model), lower_model(model, shifts)):
        one = np.eye(dim)
        g = -1j * sweep.k_tilde[0, 0]
        want = np.kron(g, one) + np.kron(one, g.conj())
        for l in sweep.channels[0, 0]:
            want = want + 0.7 * np.kron(l, l.conj())
        got = _liouvillian(sweep.k_tilde[0], sweep.channels[0], sweep.strengths[0])
        assert got.tobytes() == want[np.newaxis].tobytes()
    l = np.full((dim, dim), np.inf + 0j)
    with np.errstate(invalid="ignore"):
        want = np.kron(g, one) + np.kron(one, g.conj()) + 0.7 * np.kron(l, l.conj())
        got = _liouvillian(sweep.k_tilde[0], np.broadcast_to(l, (1, 1, dim, dim)), 0.7)
        assert got.tobytes() == want[np.newaxis].tobytes()


def test_apply_shift_moves_channels_not_hamiltonian() -> None:
    model = _dephasing(0.5)
    shifted = apply_shift(model, ShiftSet.constants([0.2]))
    assert shifted.hamiltonian is model.hamiltonian
    want = pauli("z").entries - 0.2 * np.eye(2)
    assert np.allclose(shifted.lindblads[0].value_at(0.0).entries, want)
    with pytest.raises(ValueError, match="channel"):
        apply_shift(model, ShiftSet.constants([0.1, 0.2]))


def test_shift_regrouping_identity() -> None:
    # generator(H, {L - f}) == generator(K, {L}) for every complex f.
    rng = np.random.default_rng(42)
    model = LindbladModel(pauli("z"), (pauli("z"), Operator([[0, 0], [2, 0]])), 0.8)
    for _ in range(25):
        f = tuple(rng.normal(size=2) @ np.array([1, 1j]) for _ in range(2))
        shifts = ShiftSet.constants(f)
        regrouped = LindbladModel(
            shifted_hamiltonian(model, shifts), model.lindblads, model.strength
        )
        rho = _random_rho(rng)
        a = lindblad_rhs(apply_shift(model, shifts), rho).entries
        b = lindblad_rhs(regrouped, rho).entries
        assert np.max(np.abs(a - b)) < 1e-12


def test_shifted_hamiltonian_stays_hermitian() -> None:
    rng = np.random.default_rng(9)
    model = LindbladModel(pauli("z"), (Operator([[0, 0], [2, 0]]),), 0.5)
    for _ in range(10):
        f = complex(rng.normal(), rng.normal())
        k = shifted_hamiltonian(model, ShiftSet.constants([f])).value_at(0.0).entries
        assert np.max(np.abs(k - k.conj().T)) < 1e-12


def test_shift_is_hidden_cases() -> None:
    dephasing = _dephasing(0.5)
    assert shift_is_hidden(dephasing, ShiftSet.constants([0.2]))
    assert shift_is_hidden(dephasing, ShiftSet.constants([-3.0]))
    # Complex shift on a Hermitian channel is not hidden ...
    assert not shift_is_hidden(dephasing, ShiftSet.constants([0.2 + 0.1j]))
    # ... nor is any nonzero shift on a non-Hermitian channel.
    decay = LindbladModel(pauli("z"), (Operator([[0, 0], [2, 0]]),), 0.5)
    assert not shift_is_hidden(decay, ShiftSet.constants([0.2]))
    assert shift_is_hidden(decay, ShiftSet.constants([0.0]))


def test_hidden_shift_leaves_density_evolution_unchanged() -> None:
    model = _dephasing(0.5)
    shifted = apply_shift(model, ShiftSet.constants([0.2]))
    rho0 = _equator_rho()
    base = evolve_density(model, rho0, 2 * math.pi, steps=512)
    moved = evolve_density(shifted, rho0, 2 * math.pi, steps=512)
    worst = max(
        float(np.max(np.abs(a.entries - b.entries)))
        for (_, a), (_, b) in zip(base, moved)
    )
    assert worst < 1e-10


def test_non_hidden_shift_changes_density_evolution() -> None:
    model = LindbladModel(pauli("z"), (Operator([[0, 0], [2, 0]]),), 0.5)
    shifted = apply_shift(model, ShiftSet.constants([0.3]))
    rho0 = _equator_rho()
    base = evolve_density(model, rho0, 2.0, steps=512)
    moved = evolve_density(shifted, rho0, 2.0, steps=512)
    assert np.max(np.abs(base[-1][1].entries - moved[-1][1].entries)) > 1e-3


def test_zeeman_term_of_decay_shift() -> None:
    # For L = sigma_x - i sigma_y the induced Hamiltonian change is
    # -strength * (Im(f) sigma_x + Re(f) sigma_y).
    lam = 0.7
    model = LindbladModel(pauli("z"), (Operator(pauli("x").entries - 1j * pauli("y").entries),), lam)
    for f in (0.3, 0.2 - 0.5j, 1j):
        k = shifted_hamiltonian(model, ShiftSet.constants([f])).value_at(0.0).entries
        h = model.hamiltonian.value_at(0.0).entries
        want = h - lam * (f.imag * pauli("x").entries + f.real * pauli("y").entries)
        assert np.max(np.abs(k - want)) < 1e-12


def test_photon_loss_shift_direction() -> None:
    # For L = a the induced term is proportional to Re(f) p - Im(f) x with
    # x = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2); prefactor lam/sqrt(2).
    from trajphase.operators import annihilation

    dim = 6
    lam = 0.4
    a = annihilation(dim)
    model = LindbladModel(Operator(np.zeros((dim, dim))), (a,), lam)
    x = Operator((a.entries + a.entries.conj().T) / math.sqrt(2))
    p = Operator(-1j * (a.entries - a.entries.conj().T) / math.sqrt(2))
    for f in (0.8, -0.25 + 0.6j):
        k = shifted_hamiltonian(model, ShiftSet.constants([f])).value_at(0.0).entries
        want = (lam / math.sqrt(2)) * (f.real * p.entries - f.imag * x.entries)
        assert np.max(np.abs(k - want)) < 1e-12


def test_time_dependent_shift_schedule() -> None:
    model = _dephasing(0.5)
    shift = ScalarSchedule.piecewise([0.1, 0.4], 1.0)
    shifted = apply_shift(model, ShiftSet((shift,)))
    assert np.allclose(
        shifted.lindblads[0].value_at(1.5).entries, pauli("z").entries - 0.4 * np.eye(2)
    )
    assert shift_is_hidden(model, ShiftSet((shift,)))
    complex_shift = ScalarSchedule.piecewise([0.1, 0.4j], 1.0)
    assert not shift_is_hidden(model, ShiftSet((complex_shift,)))


def test_shift_is_hidden_checks_every_cell() -> None:
    # A single visible cell anywhere on the grid makes the shift visible,
    # and lower_model's regrouped Hamiltonian moves in that cell alone.
    model = _dephasing(0.5)
    for count, cell in ((9, 1 / 3), (10, 0.1), (16, 2 * math.pi / 16), (7, 0.07)):
        for visible in range(count):
            values = [0.3] * count
            values[visible] = 0.5j
            shifts = ShiftSet((ScalarSchedule.piecewise(values, cell),))
            assert not shift_is_hidden(model, shifts)
            sweep = lower_model(model, shifts)
            moved = [float(np.max(np.abs(k - h))) for k, h in zip(sweep.k[0], sweep.h)]
            assert moved.index(max(moved)) == visible
            assert max(moved) == pytest.approx(0.25, abs=1e-12)
        hidden = ShiftSet((ScalarSchedule.piecewise([0.3] * count, cell),))
        assert shift_is_hidden(model, hidden)


def test_shift_is_hidden_needs_a_common_grid() -> None:
    # A piecewise channel and a piecewise shift on different grids raise,
    # as lower_model does; constants broadcast over either grid.
    channel = OperatorSchedule.piecewise([pauli("z"), 2 * pauli("z")], 1.0)
    model = LindbladModel(0.5 * pauli("z"), (channel,), 0.5)
    for shift in (ScalarSchedule.piecewise([0.1, 0.2, 0.3], 1.0),
                  ScalarSchedule.piecewise([0.1, 0.2], 0.5)):
        with pytest.raises(ValueError, match="common grid"):
            shift_is_hidden(model, ShiftSet((shift,)))
        with pytest.raises(ValueError, match="common grid"):
            lower_model(model, ShiftSet((shift,)))
    assert shift_is_hidden(model, ShiftSet.constants([0.4]))
    assert shift_is_hidden(model, ShiftSet((ScalarSchedule.piecewise([0.1, -0.2], 1.0),)))
    assert not shift_is_hidden(model, ShiftSet((ScalarSchedule.piecewise([0.1, 0.2j], 1.0),)))


def test_unitary_mixing_preserves_generator() -> None:
    rng = np.random.default_rng(17)
    model = LindbladModel(pauli("z"), (pauli("z"), Operator([[0, 0], [2, 0]])), 0.8)
    # Random unitary from the QR decomposition of a Ginibre draw.
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    mixed = apply_unitary_mixing(model, q)
    for _ in range(10):
        rho = _random_rho(rng)
        a = lindblad_rhs(model, rho).entries
        b = lindblad_rhs(mixed, rho).entries
        assert np.max(np.abs(a - b)) < 1e-12


def test_unitary_mixing_rejects_non_unitary() -> None:
    model = LindbladModel(pauli("z"), (pauli("z"), pauli("x")), 0.8)
    with pytest.raises(ValueError, match="unitary"):
        apply_unitary_mixing(model, np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="2 x 2"):
        apply_unitary_mixing(model, np.eye(3))


def test_zero_point_shift_leaves_density_dynamics_unchanged() -> None:
    model = _dephasing(0.4)
    moved = zero_point_shift(model, 0.9)
    rho0 = _equator_rho()
    a = evolve_density(model, rho0, 3.0, steps=512)[-1][1].entries
    b = evolve_density(moved, rho0, 3.0, steps=512)[-1][1].entries
    assert np.max(np.abs(a - b)) < 1e-12
    want = model.hamiltonian.value_at(0.0).entries - 0.9 * np.eye(2)
    assert np.allclose(moved.hamiltonian.value_at(0.0).entries, want)
    with pytest.raises(ValueError, match="real"):
        zero_point_shift(model, ScalarSchedule.constant(0.3j))
