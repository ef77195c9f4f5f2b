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
Hermitian ("hidden" shifts). An unshifted model is the zero shift: there
is one lowering, `lower_sweep`, and one lowered form, `LoweredSweep`:
read-only stacks over the points of a model, each with its own strength
and shifts, and the cells of their common grid (shifted channels, the
no-jump generator K_tilde and the Hermitian K), each entry's arithmetic
that of a single point and cell, so a point of a sweep has the bits it
would have alone. `lower_model` is the one-point sweep, and `lower_points`
lowers (model, shifts) points with one call per group that shares a
model's schedules and its shifts' grid. `evolve_states` and
`energy_integral` take every point of a sweep at once; the propagators of
one point, the jump sampler and the QSD mean path, take it as (sweep, p)
and read row p of the stacks, as `apply_shift` and `shifted_hamiltonian`
do to build their schedules.

The master equation is linear in rho with a piecewise-constant generator,
so `evolve_states` solves it exactly: each point's Liouvillian S_c in
cell c, a d^2 x d^2 matrix on vec(rho), is exponentiated once, exp(dt
S_c), and runs of steps in one cell are propagated by powers of these
maps, with the same step-to-cell rule and run kernel as the no-jump
branch. `energy_integral` integrates Tr[rho(t) K(t)] exactly, one
augmented exponential per cell and point, with no grid.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Optional, Sequence, Union

import numpy as np

from .operators import (
    DEFAULT_SUBSTEPS,
    MapPowers,
    Operator,
    OperatorSchedule,
    ScalarSchedule,
    Schedule,
    combine,
    combine_schedules,
    common_grid,
    identity,
    is_hermitian,
    matrix_exponential,
    run_windows,
    step_propagators,
    unit_vector,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
# Eigenvalues below this are a broken state, not roundoff.
POSITIVITY_HARD_TOL = 1e-6


class IntegrationError(RuntimeError):
    """Master-equation integration violated a density-matrix invariant."""


@dataclasses.dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix of finite entries. Construction checks
    finiteness, Hermiticity and trace; positive semidefiniteness is checked
    by validate()."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        # The tolerance checks below compare with '>', which nan passes.
        if not np.isfinite(arr).all():
            raise ValueError("density matrix has non-finite entries")
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
        if not np.isfinite(vec).all():
            raise ValueError("density matrix has non-finite entries")
        if not vec.any():
            raise ValueError("cannot build a density matrix from the zero vector")
        vec = unit_vector(vec)
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
    strength. strength = 0 is a closed system. The Hamiltonian must be
    Hermitian in every cell, within HERMITICITY_TOL times max(1, max |H|)."""

    hamiltonian: OperatorSchedule
    lindblads: tuple[OperatorSchedule, ...]
    strength: float

    def __post_init__(self) -> None:
        ham = _as_operator_schedule(self.hamiltonian)
        chans = tuple(_as_operator_schedule(c) for c in self.lindblads)
        if self.strength < 0:
            raise ValueError("coupling strength must be nonnegative")
        for cell, op in enumerate(ham.values):
            if not is_hermitian(op, HERMITICITY_TOL * max(1.0, np.abs(op.entries).max())):
                raise ValueError(f"Hamiltonian is not Hermitian in cell {cell}")
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


def _check_channel_count(given: int, count: int) -> None:
    if given != count:
        raise ValueError(f"{given} shifts supplied for {count} channels")


@dataclasses.dataclass(frozen=True, eq=False)
class LoweredSweep:
    """A model at P points, each with its own strength and shifts (zero
    for an unshifted point), as read-only stacks over the points p, the
    cells c of their common grid and the channels m: h[c], the shifted
    channels L_m - f_m [p, c, m], the no-jump generator K_tilde = H - (i
    strengths[p] / 2) sum_m (L_m - f_m)^dag (L_m - f_m) and the Hermitian K
    of the shifted model [p, c]. grid holds each cell's index on that grid.
    Point p is the pair (sweep, p): its rows of the stacks."""

    model: LindbladModel
    grid: Schedule
    strengths: np.ndarray
    h: np.ndarray
    channels: np.ndarray
    k_tilde: np.ndarray
    k: np.ndarray

    def __len__(self) -> int:
        return len(self.strengths)


def lower_sweep(
    model: LindbladModel,
    strengths: Sequence[float],
    shifts: Optional[np.ndarray] = None,
    cell: Optional[float] = None,
) -> LoweredSweep:
    """The model at one point per strength, shifted by the (P, M, n)
    complex shifts: shifts[p, m] are f_m of point p, one value (n = 1, cell
    None) or one per cell of width cell. shifts None is a zero shift of
    every point and channel.

    This is the one lowering; `lower_model` is its one-point case. Every
    entry takes the arithmetic of a single point and cell, broadcast over
    points and cells: channels L_m - f_m * 1, squares (L_m - f_m)^dag
    (L_m - f_m), K_tilde = H - (i lambda / 2) sum_m squares[m] and K = H -
    (i lambda / 2) sum_m (conj(f_m) L_m - f_m L_m^dag), summed channel by
    channel in order. A zero shift keeps L_m and H, signed zeros included,
    as an unshifted model's channels and K. The Hamiltonian, channels and
    shifts must share one grid (constants broadcast). Only the strengths
    and the shift count are checked here: the model already is.
    """
    lam = np.asarray(strengths, dtype=float)
    if (lam < 0).any():
        raise ValueError("coupling strength must be nonnegative")
    count = len(model.lindblads)
    shifts = np.asarray(np.zeros((len(lam), count, 1)) if shifts is None else shifts, complex)
    _check_channel_count(shifts.shape[1], count)
    schedules = (model.hamiltonian, *model.lindblads)
    grids = [(s.cell, len(s.values)) for s in schedules]
    grid_cell, cells = common_grid([*grids, (cell, shifts.shape[2])])
    dim = model.dim
    h, *ls = (
        np.broadcast_to([op.entries for op in s.values], (cells, dim, dim)) for s in schedules
    )
    # (C, M, d, d), channel m of cell c.
    ls = np.stack(ls, axis=1) if ls else np.empty((cells, 0, dim, dim), complex)
    coef = (0.5j * lam)[:, np.newaxis, np.newaxis, np.newaxis]
    points = (len(lam), cells)
    # (P, C, M, 1, 1): f_m of point p in cell c.
    f = np.broadcast_to(shifts.transpose(0, 2, 1), (*points, count))[..., np.newaxis, np.newaxis]
    adjs = ls.conj().swapaxes(-1, -2)
    k = np.broadcast_to(h, (*points, dim, dim))
    for m in range(count):
        # + 0.0 turns a vanishing term's -0 parts to +0, so a zero term keeps H's bits.
        k = k - (coef * (np.conj(f[:, :, m]) * ls[:, m] - f[:, :, m] * adjs[:, m]) + 0.0)
    chans = ls - f * identity(dim).entries
    squares = chans.conj().swapaxes(-1, -2) @ chans
    k_tilde = np.broadcast_to(h, k.shape)
    for m in range(count):
        k_tilde = k_tilde - coef * squares[..., m, :, :]
    for a in (h, chans, k_tilde, k):
        a.flags.writeable = False
    grid = Schedule(tuple(range(cells)), grid_cell)
    return LoweredSweep(model, grid, lam, h, chans, k_tilde, k)


def stack_shifts(shift_sets: Sequence[Optional[ShiftSet]]) -> tuple[np.ndarray, Optional[float]]:
    """The (P, M, n) values of shift sets that share one grid and its cell,
    as `lower_sweep` takes them; a constant shift has n = 1 and cell None,
    and is broadcast over the grid of a piecewise one. None is a zero shift
    of the M channels of the other sets (M = 0 if there are none)."""
    given = [shift_set for shift_set in shift_sets if shift_set is not None]
    cell, cells = common_grid((s.cell, len(s.values)) for sets in given for s in sets.shifts)
    values = np.zeros((len(shift_sets), len(given[0]) if given else 0, cells), complex)
    for p, shift_set in enumerate(shift_sets):
        for m, s in enumerate(shift_set.shifts if shift_set is not None else ()):
            values[p, m] = s.values
    return values, cell


def lower_points(
    points: Sequence[tuple[LindbladModel, Optional[ShiftSet]]]
) -> list[tuple[LoweredSweep, list[int]]]:
    """`lower_sweep` of each group of (model, shifts) points that share the
    model's schedules and their shifts' grid, so that every point is
    lowered on the grid it would have alone: each group's lowering with the
    indices of its points, groups in order of first appearance. shifts None
    is a zero constant shift, lowered with the constant shifts."""
    groups: dict[tuple, tuple[LindbladModel, list, list[int]]] = {}
    for i, (model, shifts) in enumerate(points):
        if shifts is None:
            shifts = ShiftSet.constants([0.0] * len(model.lindblads))
        _check_channel_count(len(shifts), len(model.lindblads))
        grid = common_grid((s.cell, len(s.values)) for s in shifts.shifts)
        key = (model.hamiltonian, model.lindblads, grid)
        _, shift_sets, members = groups.setdefault(key, (model, [], []))
        shift_sets.append(shifts)
        members.append(i)
    out = []
    for model, shift_sets, members in groups.values():
        strengths = [points[i][0].strength for i in members]
        out.append((lower_sweep(model, strengths, *stack_shifts(shift_sets)), members))
    return out


def lower_model(model: LindbladModel, shifts: Optional[ShiftSet] = None) -> LoweredSweep:
    """The model shifted by shifts, None for none, as the one-point sweep
    of `lower_sweep`."""
    ((lowered, _),) = lower_points([(model, shifts)])
    return lowered


def _schedule(grid: Schedule, rows) -> OperatorSchedule:
    """The (C, d, d) rows of a lowering's stack as an operator schedule on
    its grid."""
    return OperatorSchedule(tuple(Operator(row) for row in rows), grid.cell)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of d x d matrices, or of each pair of two broadcast (..., d,
    d) stacks, as one broadcast product: entry (i d + k, j d + l) is a[i, j]
    b[k, l]."""
    size = a.shape[-1] * b.shape[-1]
    out = a[..., :, np.newaxis, :, np.newaxis] * b[..., np.newaxis, :, np.newaxis, :]
    return out.reshape(*out.shape[:-4], size, size)


def _liouvillian(k_tilde: np.ndarray, channels: np.ndarray, strengths) -> np.ndarray:
    """The master equation's right-hand side in every cell as a (..., C,
    d^2, d^2) stack of matrices on the row-major vec(rho), by vec(A X B) =
    kron(A, B.T) vec(X), from a lowering's (..., C, d, d) rows of K_tilde,
    (..., C, M, d, d) rows of channels and (...) strengths: G rho + rho
    G^dag + strength * sum_m L_m rho L_m^dag with G = -i K_tilde."""
    one = np.eye(k_tilde.shape[-1])
    g = -1j * k_tilde
    lam = np.asarray(strengths)[..., np.newaxis, np.newaxis, np.newaxis]
    out = _kron(g, one) + _kron(one, g.conj())
    for m in range(channels.shape[-3]):
        l = channels[..., m, :, :]
        out = out + lam * _kron(l, l.conj())
    return out


def energy_integral(sweep: LoweredSweep, vec: np.ndarray, total_time: float) -> np.ndarray:
    """Integral of Tr[rho(t) K(t)] over [0, total_time] at every point of
    sweep, as (P,), rho(t) being the master-equation solution from the pure
    state vec, exact per cell; each point with the bits of its one-point
    sweep.

    On the row-major vec, Tr[K rho] = vec(K^T) . vec(rho). Over a cell's span
    s, the exponential of the augmented generator [[S_c, 0], [vec(K_c^T)^T, 0]]
    has the last row [vec(K_c^T)^T integral of exp(t S_c) over [0, s], 1]
    (C. F. Van Loan, IEEE Trans. Autom. Control 23, 395 (1978)); applied to
    (vec(rho), acc), it carries rho to the next cell and adds the cell's
    integral to acc. One stack of `_liouvillian`s and one augmented
    exponential per cell and point, as in `evolve_states`. A total_time past
    the schedule raises ScheduleRangeError.
    """
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    cell = sweep.grid.cell
    cells = int(sweep.grid.cells_at(total_time)) + 1
    size = vec.shape[0] ** 2
    state = np.zeros((len(sweep), size + 1, 1), dtype=complex)
    state[:, :size, 0] = np.outer(vec, vec.conj()).reshape(-1)
    aug = np.zeros((len(sweep), cells, size + 1, size + 1), dtype=complex)
    rows = (sweep.k_tilde[:, :cells], sweep.channels[:, :cells], sweep.strengths)
    aug[..., :size, :size] = _liouvillian(*rows)
    aug[..., size, :size] = sweep.k[:, :cells].swapaxes(-1, -2).reshape(len(sweep), cells, -1)
    ends = [total_time if c == cells - 1 else (c + 1) * cell for c in range(cells)]
    spans = [end - c * (cell or 0.0) for c, end in enumerate(ends)]
    maps = matrix_exponential(np.array(spans)[:, np.newaxis, np.newaxis] * aug)
    for c in range(cells):
        state = maps[:, c] @ state
    return state[:, size, 0].real


def _checked_density(entries: np.ndarray) -> DensityMatrix:
    """DensityMatrix around read-only entries whose Hermiticity and trace
    the caller has already checked."""
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "entries", entries)
    return state


def lindblad_rhs(model: LindbladModel, rho: Union[DensityMatrix, np.ndarray], t: float = 0.0) -> Operator:
    """Right-hand side of the master equation at time t (traceless
    Hermitian): the cell's `_liouvillian`, the generator `evolve_states`
    exponentiates, applied to the row-major vec(rho)."""
    arr = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    sweep = lower_model(model)
    liouvillians = _liouvillian(sweep.k_tilde[0], sweep.channels[0], sweep.strengths[0])
    generator = liouvillians[sweep.grid.value_at(t)]
    return Operator((generator @ arr.reshape(-1)).reshape(arr.shape))


def evolve_density(
    model: LindbladModel,
    rho0: DensityMatrix,
    total_time: float,
    steps: int = DEFAULT_SUBSTEPS,
) -> list[tuple[float, DensityMatrix]]:
    """Solve the master equation on a uniform grid of `steps` steps.

    Returns the density matrix on the full grid including both endpoints,
    as (time, state) pairs: the one-point list form of `evolve_states`,
    whose exact per-cell maps and once-per-grid checks it shares.
    """
    times, (rhos,) = evolve_states(lower_model(model), rho0, total_time, steps)
    return [(0.0, rho0)] + [
        (t, _checked_density(rho)) for t, rho in zip(times[1:].tolist(), rhos[1:])
    ]


def evolve_states(
    sweep: LoweredSweep,
    rho0: DensityMatrix,
    total_time: float,
    steps: int = DEFAULT_SUBSTEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid times and the read-only (P, steps + 1, d, d) stack of checked
    density matrices of the master-equation solution from rho0 at every
    point of sweep, each point with the bits of its one-point sweep.

    A step of cell c is exp(dt S_c) on the row-major vec(rho), S_c being the
    point's `_liouvillian` in that cell: one matrix exponential per cell
    used and point, from `operators.step_propagators` (a step takes the cell
    of its midpoint), applied to all points in the one window of
    `operators.run_windows` that spans the grid, from one ladder of their
    maps' powers, as for the no-jump branch. On a
    grid whose steps line up with the cells this is exact up to roundoff,
    however coarse. Each point's grid states are then re-symmetrized in
    place and checked at once by `_check_states`. The maps preserve trace and
    positivity, so a failed check is a broken invariant, not a coarse grid.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    # (C, P, d^2, d^2); exp(-i dt (i S_c)) = exp(dt S_c).
    generators = 1j * _liouvillian(sweep.k_tilde, sweep.channels, sweep.strengths).swapaxes(0, 1)
    maps, runs = step_propagators(sweep.grid, generators, total_time, steps)
    x0 = np.broadcast_to(rho0.entries.reshape(-1), (len(sweep), rho0.entries.size))
    [(_, out)] = run_windows(MapPowers(maps, steps), runs, x0, steps + 1)
    stack = out[..., 1:].swapaxes(-1, -2).reshape(len(sweep), -1, *rho0.entries.shape)
    times = np.arange(steps + 1) * (total_time / steps)
    for rhos in stack[:, 1:]:
        # Re-symmetrize to drop the skew part roundoff leaves behind, in place
        # and point by point: no temporary spans the whole stack.
        np.add(rhos, rhos.conj().swapaxes(-1, -2), out=rhos)
        rhos *= 0.5
        _check_states(rhos, times[1:])
    stack.setflags(write=False)
    return times, stack


def _check_states(rhos: np.ndarray, times: np.ndarray) -> None:
    """Check an (n, d, d) stack of Hermitian grid states, rhos[k] being step
    k + 1 at times[k], against the density-matrix invariants.

    The first step that is not finite, whose trace differs from 1 beyond
    TRACE_TOL, or that has an eigenvalue below -POSITIVITY_HARD_TOL raises
    IntegrationError; an eigenvalue below -POSITIVITY_TOL at an earlier step
    warns. Positivity is screened by one batched Cholesky factorization of
    rho + (POSITIVITY_TOL / 2) I, which succeeds only when no eigenvalue
    lies below -POSITIVITY_TOL.
    """
    count = len(rhos)
    with np.errstate(over="ignore", invalid="ignore"):
        traces = np.trace(rhos, axis1=1, axis2=2)
        broken = (
            ~np.isfinite(rhos).all(axis=(1, 2))
            | (np.abs(traces.real - 1.0) > TRACE_TOL)
            | (np.abs(traces.imag) > TRACE_TOL)
        )
    stop = int(np.argmax(broken)) if broken.any() else count
    hard = np.empty(0, dtype=np.intp)
    try:
        # Factorizes only if every eigenvalue is above -POSITIVITY_TOL / 2 up
        # to roundoff far below that margin: then nothing below warns or raises.
        np.linalg.cholesky(rhos[:stop] + 0.5 * POSITIVITY_TOL * np.eye(rhos.shape[1]))
    except np.linalg.LinAlgError:
        lows = np.linalg.eigvalsh(rhos[:stop]).min(axis=1, initial=np.inf)
        hard = np.flatnonzero(lows < -POSITIVITY_HARD_TOL)
        if hard.size:
            stop = int(hard[0])
        for k in np.flatnonzero(lows[:stop] < -POSITIVITY_TOL).tolist():
            warnings.warn(
                f"density eigenvalue {float(lows[k])} at step {k + 1} is beyond roundoff",
                RuntimeWarning,
                stacklevel=4,
            )
    if stop < count:
        where = f"step {stop + 1} (t = {times[stop]:g})"
        if hard.size:
            raise IntegrationError(
                f"{where}: eigenvalue {float(lows[stop])} below -{POSITIVITY_HARD_TOL}"
            )
        if not np.isfinite(rhos[stop]).all():
            raise IntegrationError(f"{where}: density matrix has non-finite entries")
        raise IntegrationError(f"{where}: density matrix trace differs from 1 beyond 1e-10")


def apply_shift(model: LindbladModel, shifts: ShiftSet) -> LindbladModel:
    """Shift every channel, L_m -> L_m - f_m(t) * identity.

    The Hamiltonian field is returned as supplied: the master equation of the
    shifted model regroups exactly into Hamiltonian `shifted_hamiltonian`
    with the original dissipator, so storing K as well would double-count.
    """
    sweep = lower_model(model, shifts)
    channels = tuple(_schedule(sweep.grid, sweep.channels[0, :, m]) for m in range(len(shifts)))
    return LindbladModel(model.hamiltonian, channels, model.strength)


def shifted_hamiltonian(model: LindbladModel, shifts: ShiftSet) -> OperatorSchedule:
    """Hermitian Hamiltonian K generating the shifted model's unitary part:

        K(t) = H(t) - (i * strength / 2) * sum_m (conj(f_m) L_m - f_m L_m^dag)
    """
    sweep = lower_model(model, shifts)
    return _schedule(sweep.grid, sweep.k[0])


def shift_is_hidden(model: LindbladModel, shifts: ShiftSet, tol: float = 1e-12) -> bool:
    """True when every conj(f_m) L_m is Hermitian in every cell of the
    common grid of the channels and shifts, i.e. when the shift leaves the
    master equation unchanged. Piecewise schedules on different grids raise
    ValueError, as in `lower_model`."""
    _check_channel_count(len(shifts), len(model.lindblads))
    count = len(model.lindblads)

    def hermitian(*values) -> bool:
        return all(
            is_hermitian(np.conj(complex(f)) * l.entries, tol)
            for l, f in zip(values[:count], values[count:])
        )

    cells, _ = combine(hermitian, *model.lindblads, *shifts.shifts)
    return all(cells)


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
