"""Lindblad models, master-equation integration, and channel symmetries.

The master equation used throughout:

    d rho / dt = -i [H(t), rho]
                 + strength * sum_m ( L_m rho L_m^dag
                                      - (L_m^dag L_m rho + rho L_m^dag L_m) / 2 )

with hbar = 1, dimensionless channel operators L_m, and a single nonnegative
coupling strength multiplying every channel. Shifting a channel by a complex
scalar, L_m -> L_m - f_m(t), leaves the equation in Lindblad form: expanding
the dissipator shows the whole effect regroups into the Hamiltonian part,

    H -> K = H - (i * strength / 2) * sum_m (conj(f_m) L_m - f_m L_m^dag),

so the physical evolution is unchanged exactly when every conj(f_m) L_m is
Hermitian ("hidden" shifts). `lower_model` turns a model and optional
shifts into per-cell matrices (shifted channels, their squares, the no-jump
generator K_tilde and the Hermitian K) once; every propagator reads those.
`apply_shift` and `shifted_hamiltonian` are schedule views of the same
lowering.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .operators import (
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    Schedule,
    combine,
    combine_schedules,
    identity,
    is_hermitian,
    key_runs,
    run_states,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
# Eigenvalues below this are integrator blow-up, not roundoff.
POSITIVITY_HARD_TOL = 1e-6

DEFAULT_DENSITY_STEPS = 4096


class IntegrationError(RuntimeError):
    """Master-equation integration violated a density-matrix invariant."""


@dataclasses.dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix. Construction checks Hermiticity and
    trace; positive semidefiniteness is checked by validate()."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(arr).real - 1.0) > TRACE_TOL or abs(np.trace(arr).imag) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1 beyond 1e-10")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def validate(self, positivity_tol: float = POSITIVITY_TOL) -> None:
        """Raise if any eigenvalue sits below -positivity_tol."""
        low = float(np.min(np.linalg.eigvalsh(self.entries)))
        if low < -positivity_tol:
            raise ValueError(f"density matrix has eigenvalue {low} < -{positivity_tol}")

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        vec = np.asarray(
            getattr(amplitudes, "amplitudes", amplitudes), dtype=complex
        ).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("cannot build a density matrix from the zero vector")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


def _as_operator_schedule(value: Union[Operator, OperatorSchedule]) -> OperatorSchedule:
    if isinstance(value, OperatorSchedule):
        return value
    return OperatorSchedule.constant(value)


def _as_scalar_schedule(value: Union[complex, ScalarSchedule]) -> ScalarSchedule:
    if isinstance(value, ScalarSchedule):
        return value
    return ScalarSchedule.constant(value)


@dataclasses.dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian schedule plus dimensionless channels and one coupling
    strength. strength = 0 is a closed system."""

    hamiltonian: OperatorSchedule
    lindblads: tuple[OperatorSchedule, ...]
    strength: float

    def __post_init__(self) -> None:
        ham = _as_operator_schedule(self.hamiltonian)
        chans = tuple(_as_operator_schedule(c) for c in self.lindblads)
        if self.strength < 0:
            raise ValueError("coupling strength must be nonnegative")
        for c in chans:
            if c.dim != ham.dim:
                raise ValueError("channel dimension differs from the Hamiltonian's")
        object.__setattr__(self, "hamiltonian", ham)
        object.__setattr__(self, "lindblads", chans)
        object.__setattr__(self, "strength", float(self.strength))

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


@dataclasses.dataclass(frozen=True, eq=False)
class ShiftSet:
    """One complex scalar schedule per channel."""

    shifts: tuple[ScalarSchedule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "shifts", tuple(_as_scalar_schedule(s) for s in self.shifts)
        )

    @classmethod
    def constants(cls, values: Sequence[complex]) -> "ShiftSet":
        return cls(tuple(ScalarSchedule.constant(v) for v in values))

    def __len__(self) -> int:
        return len(self.shifts)


def _check_channel_count(model: LindbladModel, shifts: ShiftSet) -> None:
    if len(shifts) != len(model.lindblads):
        raise ValueError(
            f"{len(shifts)} shifts supplied for {len(model.lindblads)} channels"
        )


class CellTerms(NamedTuple):
    """Matrices of one grid cell; channels are already shifted, L_m - f_m."""

    h: np.ndarray
    channels: tuple[np.ndarray, ...]
    adjoints: tuple[np.ndarray, ...]
    # (L_m - f_m)^dag (L_m - f_m)
    squares: tuple[np.ndarray, ...]
    # K_tilde = H - (i * strength / 2) * sum_m squares[m]
    k_tilde: np.ndarray
    # Hermitian K of the shifted model; H itself when there is no shift.
    k: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class LoweredModel(Schedule):
    """A model and its shifts as one CellTerms per cell of their common grid."""

    values: tuple[CellTerms, ...]
    strength: float

    def operators(self, pick: Callable[[CellTerms], np.ndarray]) -> OperatorSchedule:
        """One matrix of every cell, as an operator schedule on the same grid."""
        return OperatorSchedule(tuple(Operator(pick(c)) for c in self.values), self.cell)


def lower_model(model: LindbladModel, shifts: Optional[ShiftSet] = None) -> LoweredModel:
    """Per-cell matrices of the model with its channels shifted by shifts.

    This is the one place that chooses between the shifted and the plain
    model: with shifts, channels are L_m - f_m and K is the regrouped
    Hamiltonian; without, channels are L_m and K = H. The Hamiltonian,
    channels and shifts must share one grid (constants broadcast).
    """
    count = len(model.lindblads)
    lam = model.strength
    one = identity(model.dim).entries
    if shifts is not None:
        _check_channel_count(model, shifts)

    def build(ham: Operator, *rest) -> CellTerms:
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
        return CellTerms(h, tuple(chans), adjoints, squares, k_tilde, k)

    shift_schedules = () if shifts is None else shifts.shifts
    values, cell = combine(build, model.hamiltonian, *model.lindblads, *shift_schedules)
    return LoweredModel(values, cell, lam)


def _rhs_matrix(terms: CellTerms, strength, rho):
    ham = terms.h
    out = -1j * (ham @ rho - rho @ ham)
    for l, ld, ldl in zip(terms.channels, terms.adjoints, terms.squares):
        out = out + strength * (l @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def _liouvillian(terms: CellTerms, strength: float) -> np.ndarray:
    """`_rhs_matrix` of one cell as a d^2 x d^2 matrix on the row-major
    vec(rho), by vec(A X B) = kron(A, B.T) vec(X). The right-hand side is
    G rho + rho G^dag + strength * sum_m L_m rho L_m^dag with G = -i K_tilde."""
    one = np.eye(terms.h.shape[0])
    g = -1j * terms.k_tilde
    out = np.kron(g, one) + np.kron(one, g.conj())
    for l in terms.channels:
        out = out + strength * np.kron(l, l.conj())
    return out


def _rk4_map(s1: np.ndarray, s2: np.ndarray, s4: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of d rho/dt = S rho as a matrix, with stage one
    on S1, the middle stages on S2 and stage four on S4."""
    one = np.eye(s1.shape[0])
    k1 = s1
    k2 = s2 @ (one + 0.5 * h * k1)
    k3 = s2 @ (one + 0.5 * h * k2)
    k4 = s4 @ (one + h * k3)
    return one + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _checked_density(entries: np.ndarray) -> DensityMatrix:
    """DensityMatrix around read-only entries whose Hermiticity and trace
    the caller has already checked."""
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "entries", entries)
    return state


def lindblad_rhs(model: LindbladModel, rho: Union[DensityMatrix, np.ndarray], t: float = 0.0) -> Operator:
    """Right-hand side of the master equation at time t (traceless Hermitian)."""
    arr = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return Operator(_rhs_matrix(lower_model(model).value_at(t), model.strength, arr))


def evolve_density(
    model: LindbladModel,
    rho0: DensityMatrix,
    total_time: float,
    steps: int = DEFAULT_DENSITY_STEPS,
) -> list[tuple[float, DensityMatrix]]:
    """Integrate the master equation with fixed-step RK4.

    Returns the density matrix on the full uniform grid including both
    endpoints. Each RK4 step is one linear map on vec(rho), so runs of steps
    with equal maps are propagated by its powers; the grid states are then
    checked once, in step order, against the density-matrix invariants, and
    positivity violations worse than roundoff abort with the offending step.
    """
    return evolve_lowered(lower_model(model), rho0, total_time, steps)


def evolve_lowered(
    lowered: LoweredModel,
    rho0: DensityMatrix,
    total_time: float,
    steps: int = DEFAULT_DENSITY_STEPS,
) -> list[tuple[float, DensityMatrix]]:
    """`evolve_density` of an already lowered model.

    The middle RK4 stages use the step's cell; the end stages read the cell
    of their own time, so a stage that straddles a switch sees the new cell.
    The step is the exact RK4 arithmetic written as one d^2 x d^2 matrix
    (`_rk4_map`), built once per distinct (first, middle, last) cell triple
    and applied through `operators.run_states`. All grid states are then
    re-symmetrized and checked at once: trace and finiteness, then one
    stacked eigvalsh; the first step that fails any check raises
    IntegrationError, and eigenvalues below -POSITIVITY_TOL at earlier steps
    warn.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    dt = total_time / steps
    starts = np.arange(steps) * dt
    first = lowered.cells_at(starts)
    middle = lowered.step_cells(0.0, total_time, steps)
    last = lowered.cells_at(starts + dt)
    # One key per (first, middle, last) triple; all three only grow with the
    # step, so each key forms a single run.
    count = len(lowered.values)
    keys = (first * count + middle) * count + last
    lam = lowered.strength
    used = np.unique(np.concatenate([first, middle, last])).tolist()
    supers = {c: _liouvillian(lowered.values[c], lam) for c in used}
    maps = {
        key: _rk4_map(supers[first[a]], supers[middle[a]], supers[last[a]], dt)
        for a, _, key in key_runs(keys)
    }

    dim = rho0.dim
    # A grid far too coarse may blow up; the checks below name the step.
    with np.errstate(over="ignore", invalid="ignore"):
        flat = run_states(maps, keys, rho0.entries.reshape(-1))
        rhos = flat[1:].reshape(steps, dim, dim)
        # Re-symmetrize to drop the skew part roundoff leaves behind.
        rhos = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
        traces = np.trace(rhos, axis1=1, axis2=2)
        broken = (
            ~np.isfinite(rhos).all(axis=(1, 2))
            | (np.abs(traces.real - 1.0) > TRACE_TOL)
            | (np.abs(traces.imag) > TRACE_TOL)
        )
    rhos.setflags(write=False)
    times = (np.arange(steps + 1) * dt).tolist()
    stop = int(np.argmax(broken)) if broken.any() else steps
    lows = np.linalg.eigvalsh(rhos[:stop]).min(axis=1, initial=np.inf)
    hard = np.flatnonzero(lows < -POSITIVITY_HARD_TOL)
    if hard.size:
        stop = int(hard[0])
    for k in np.flatnonzero(lows[:stop] < -POSITIVITY_TOL).tolist():
        warnings.warn(
            f"density eigenvalue {float(lows[k])} at step {k + 1} is beyond roundoff",
            RuntimeWarning,
            stacklevel=2,
        )
    if stop < steps:
        where = f"step {stop + 1} (t = {times[stop + 1]:g})"
        if hard.size:
            raise IntegrationError(
                f"{where}: eigenvalue {float(lows[stop])} below -{POSITIVITY_HARD_TOL}"
            )
        if not np.isfinite(rhos[stop]).all():
            raise IntegrationError(f"{where}: density matrix has non-finite entries")
        raise IntegrationError(f"{where}: density matrix trace differs from 1 beyond 1e-10")
    return [(0.0, rho0)] + [
        (t, _checked_density(rho)) for t, rho in zip(times[1:], rhos)
    ]


def apply_shift(model: LindbladModel, shifts: ShiftSet) -> LindbladModel:
    """Shift every channel, L_m -> L_m - f_m(t) * identity.

    The Hamiltonian field is returned as supplied: the master equation of the
    shifted model regroups exactly into Hamiltonian `shifted_hamiltonian`
    with the original dissipator, so storing K as well would double-count.
    """
    lowered = lower_model(model, shifts)
    channels = tuple(
        lowered.operators(lambda c, m=m: c.channels[m]) for m in range(len(shifts))
    )
    return LindbladModel(model.hamiltonian, channels, model.strength)


def shifted_hamiltonian(model: LindbladModel, shifts: ShiftSet) -> OperatorSchedule:
    """Hermitian Hamiltonian K generating the shifted model's unitary part:

        K(t) = H(t) - (i * strength / 2) * sum_m (conj(f_m) L_m - f_m L_m^dag)
    """
    return lower_model(model, shifts).operators(lambda c: c.k)


def _probe_times(*schedules) -> list[float]:
    times = {0.0}
    for s in schedules:
        if not s.is_constant:
            n = len(s.values)
            times.update(k * s.cell for k in range(n))
            times.add(n * s.cell * (1.0 - 1e-12))
    return sorted(times)


def shift_is_hidden(model: LindbladModel, shifts: ShiftSet, tol: float = 1e-12) -> bool:
    """True when every conj(f_m(t)) L_m(t) is Hermitian on the schedule grid,
    i.e. when the shift leaves the master equation unchanged."""
    _check_channel_count(model, shifts)
    for chan, f in zip(model.lindblads, shifts.shifts):
        for t in _probe_times(chan, f):
            value = np.conj(complex(f.value_at(t))) * chan.value_at(t).entries
            if not is_hermitian(value, tol):
                return False
    return True


def apply_unitary_mixing(model: LindbladModel, mixing: np.ndarray) -> LindbladModel:
    """Recombine channels, L_m -> sum_n V[m, n] L_n, for unitary V."""
    v = np.asarray(mixing, dtype=complex)
    count = len(model.lindblads)
    if v.shape != (count, count):
        raise ValueError(f"mixing matrix must be {count} x {count}, got {v.shape}")
    if np.max(np.abs(v @ v.conj().T - np.eye(count))) > 1e-10:
        raise ValueError("mixing matrix is not unitary within 1e-10")
    new_channels = []
    for m in range(count):
        row = v[m]

        def build(*vals, row=row) -> Operator:
            total = row[0] * vals[0].entries
            for coeff, op in zip(row[1:], vals[1:]):
                total = total + coeff * op.entries
            return Operator(total)

        new_channels.append(combine_schedules(build, *model.lindblads))
    return LindbladModel(model.hamiltonian, tuple(new_channels), model.strength)


def zero_point_shift(model: LindbladModel, offset: Union[float, ScalarSchedule]) -> LindbladModel:
    """Shift the energy zero point, H(t) -> H(t) - h(t) * identity (h real)."""
    sched = _as_scalar_schedule(offset)
    for value in sched.values:
        if abs(complex(value).imag) > 1e-14:
            raise ValueError("zero-point offset must be real-valued")
    one = identity(model.dim)

    def build(ham: Operator, hv) -> Operator:
        return ham - complex(hv).real * one

    new_h = combine_schedules(build, model.hamiltonian, sched)
    return LindbladModel(new_h, model.lindblads, model.strength)
