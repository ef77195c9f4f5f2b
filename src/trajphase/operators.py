"""Dense operators, time schedules, and exact small-matrix propagation.

Everything downstream works with explicit complex matrices on small Hilbert
spaces (qubits, truncated oscillators), so operators are plain numpy arrays
wrapped in thin immutable containers. Time dependence is restricted to
piecewise-constant schedules on a uniform grid, which keeps the time-ordered
propagator exactly composable.

A time t lies in cell floor(t / cell), the right end of the grid in the last
cell. Step k of a uniform time grid of width dt starting at t0 uses the cell
that holds its midpoint t0 + (k + 1/2) dt. `Schedule.step_cells` implements
this step-to-cell rule, and every per-step lookup goes through it.

Consecutive steps in one cell apply the same linear map, so a run of them is
propagated by powers of that cell's map rather than step by step:
`run_states` fills a run of length n with about log2(n) stacked products
(repeated squaring), and `time_ordered_propagator` multiplies one matrix
power per run. Both are plain matrix products, exact up to roundoff for any
map, normal or not.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence, Union

import numpy as np
import scipy.linalg

DEFAULT_SUBSTEPS = 4096

# Relative tolerance below which a grid lookup just outside the covered
# interval is attributed to float roundoff on the endpoint.
_GRID_SLACK = 1e-9


class ScheduleRangeError(ValueError):
    """A schedule was evaluated outside the interval its grid covers."""


def _square_complex(entries) -> np.ndarray:
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense complex matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _square_complex(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.entries - other.entries)

    def __neg__(self) -> "Operator":
        return Operator(-self.entries)

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.entries @ other.entries)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """State vector, not necessarily normalized."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if arr.size == 0:
            raise ValueError("state vector must have at least one amplitude")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.amplitudes / n)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclasses.dataclass(frozen=True)
class BlochAngles:
    """Point on the Bloch sphere; theta in [0, pi], phi stored in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", self.phi % math.tau)


def bloch_state(angles: BlochAngles) -> PureState:
    """Unit qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    half = 0.5 * angles.theta
    return PureState(
        np.array([math.cos(half), math.sin(half) * np.exp(1j * angles.phi)])
    )


def bloch_angles(state: PureState) -> BlochAngles:
    """Bloch angles of a qubit state, ignoring norm and global phase."""
    if state.dim != 2:
        raise ValueError(f"Bloch angles need a 2-level state, got dim {state.dim}")
    a0, a1 = state.amplitudes
    if abs(a0) == 0.0 and abs(a1) == 0.0:
        raise ValueError("Bloch angles of the zero vector are undefined")
    theta = 2.0 * math.atan2(abs(a1), abs(a0))
    # phi is read off the relative phase; it is immaterial at the poles.
    phi = float(np.angle(a1 * np.conj(a0))) if abs(a0) > 0 and abs(a1) > 0 else 0.0
    return BlochAngles(theta, phi)


def bloch_path(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch angles along an (n, 2) array of qubit amplitudes.

    Returns (theta, phi) arrays; phi is wrapped into [0, 2*pi).
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of amplitudes")
    theta = 2.0 * np.arctan2(np.abs(states[:, 1]), np.abs(states[:, 0]))
    phi = np.angle(states[:, 1] * np.conj(states[:, 0])) % math.tau
    return theta, phi


@dataclasses.dataclass(frozen=True, eq=False)
class Schedule:
    """Function of t: constant (cell None, one value), or piecewise constant
    on a uniform grid covering [0, len(values) * cell]. Subclasses check
    their values in `_validated`."""

    values: tuple
    cell: float | None

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not values:
            raise ValueError("schedule needs at least one value")
        if self.cell is None and len(values) != 1:
            raise ValueError("constant schedule takes exactly one value")
        if self.cell is not None and self.cell <= 0:
            raise ValueError("grid cell must be positive")
        object.__setattr__(self, "values", self._validated(values))

    def _validated(self, values: tuple) -> tuple:
        return values

    @classmethod
    def constant(cls, value):
        return cls((value,), None)

    @classmethod
    def piecewise(cls, values: Sequence, cell: float):
        return cls(tuple(values), float(cell))

    @property
    def is_constant(self) -> bool:
        return self.cell is None

    @property
    def extent(self) -> float:
        return math.inf if self.cell is None else self.cell * len(self.values)

    def covers(self, t0: float, t1: float) -> bool:
        if self.cell is None:
            return True
        slack = _GRID_SLACK * max(1.0, self.extent)
        return t0 >= -slack and t1 <= self.extent + slack

    def cells_at(self, times) -> np.ndarray:
        """Index of the cell holding each time (scalar or array)."""
        times = np.asarray(times, dtype=float)
        if self.cell is None:
            return np.zeros(times.shape, dtype=np.intp)
        if times.size and not self.covers(float(times.min()), float(times.max())):
            outside = times[(times < 0) | (times > self.extent)].flat[0]
            raise ScheduleRangeError(
                f"t={outside} outside the covered interval [0, {self.extent}]"
            )
        return np.clip((times / self.cell).astype(np.intp), 0, len(self.values) - 1)

    def step_cells(self, t0: float, t1: float, steps: int) -> np.ndarray:
        """Cell of each step of the uniform grid of `steps` steps on [t0, t1],
        by the step-to-cell rule of this module."""
        if not self.covers(t0, t1):
            raise ScheduleRangeError(
                f"schedule covers [0, {self.extent}], requested [{t0}, {t1}]"
            )
        dt = (t1 - t0) / steps
        return self.cells_at(t0 + (np.arange(steps) + 0.5) * dt)

    def value_at(self, t: float):
        return self.values[int(self.cells_at(t))]


@dataclasses.dataclass(frozen=True, eq=False)
class OperatorSchedule(Schedule):
    """Operator-valued schedule; all values share one dimension."""

    values: tuple[Operator, ...]

    def _validated(self, values: tuple) -> tuple:
        if len({v.dim for v in values}) != 1:
            raise ValueError("schedule values must share one dimension")
        return values

    @property
    def dim(self) -> int:
        return self.values[0].dim

    def map(self, fn: Callable[[Operator], Operator]) -> "OperatorSchedule":
        return OperatorSchedule(tuple(fn(v) for v in self.values), self.cell)


@dataclasses.dataclass(frozen=True, eq=False)
class ScalarSchedule(Schedule):
    """Complex-valued schedule."""

    values: tuple[complex, ...]

    def _validated(self, values: tuple) -> tuple:
        return tuple(complex(v) for v in values)


def combine(fn: Callable, *schedules: Schedule) -> tuple[tuple, float | None]:
    """Pointwise-combine schedules cell by cell: (values, cell) of the result.

    Piecewise inputs must share one grid; constants are broadcast. The
    combiner runs once per grid cell, so fn must be pure.
    """
    pieces = [s for s in schedules if not s.is_constant]
    if not pieces:
        return (fn(*(s.values[0] for s in schedules)),), None
    cell = pieces[0].cell
    count = len(pieces[0].values)
    for s in pieces[1:]:
        if len(s.values) != count or abs(s.cell - cell) > 1e-12 * cell:
            raise ValueError("piecewise schedules must share a common grid")
    values = tuple(
        fn(*(s.values[0] if s.is_constant else s.values[k] for s in schedules))
        for k in range(count)
    )
    return values, cell


def combine_schedules(fn: Callable[..., Operator], *schedules: Schedule) -> OperatorSchedule:
    """Pointwise-combine schedules into an operator schedule (see `combine`)."""
    return OperatorSchedule(*combine(fn, *schedules))


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def pauli(axis: str) -> Operator:
    """Pauli matrix for axis 'x', 'y' or 'z'; sigma_z = diag(1, -1)."""
    matrices = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    try:
        return Operator(matrices[axis])
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def annihilation(dim: int) -> Operator:
    """Truncated bosonic annihilation operator: <n-1|a|n> = sqrt(n)."""
    if dim < 2:
        raise ValueError("annihilation operator needs dim >= 2")
    return Operator(np.diag(np.sqrt(np.arange(1.0, dim)), k=1))


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def is_hermitian(op: Union[Operator, np.ndarray], tol: float = 1e-12) -> bool:
    """True when max-entry |A - A^dag| <= tol."""
    entries = op.entries if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    return bool(np.max(np.abs(entries - entries.conj().T)) <= tol)


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(A) for a dense complex matrix.

    Normal matrices (within 1e-12, relative to the squared entry scale) take
    the spectral route, which is exact for the diagonalizable generators that
    dominate this package; everything else falls back to scaling-and-squaring.
    """
    a = np.asarray(a, dtype=complex)
    defect = a @ a.conj().T - a.conj().T @ a
    scale = max(1.0, float(np.max(np.abs(a))) ** 2)
    if np.max(np.abs(defect)) <= 1e-12 * scale:
        triangular, basis = scipy.linalg.schur(a, output="complex")
        return (basis * np.exp(np.diag(triangular))) @ basis.conj().T
    return scipy.linalg.expm(a)


def step_propagators(
    generator: OperatorSchedule, t0: float, t1: float, steps: int
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Per-cell maps exp(-i dt G) and the cell of each step of the uniform
    grid on [t0, t1]: step k applies maps[cells[k]]. One exponential per
    cell used."""
    cells = generator.step_cells(t0, t1, steps)
    dt = (t1 - t0) / steps
    maps = {
        c: matrix_exponential(-1j * dt * generator.values[c].entries)
        for c in {key for _, _, key in key_runs(cells)}
    }
    return maps, cells


def key_runs(keys) -> list[tuple[int, int, int]]:
    """(start, stop, key) of each run of equal consecutive keys."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return []
    edges = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    bounds = [0, *edges.tolist(), len(keys)]
    return [(a, b, int(keys[a])) for a, b in zip(bounds[:-1], bounds[1:])]


def run_states(maps, keys, x0) -> np.ndarray:
    """States x_0..x_n of x_{k+1} = maps[keys[k]] @ x_k, as an (n + 1, d) array.

    Within a run of equal keys the known states are advanced by the map's
    power by repeated squaring, out[a+m : a+2m] = out[a : a+m] @ (M^m).T,
    so a run of length L costs about log2(L) stacked products.
    """
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    out = np.empty((len(keys) + 1, x0.shape[0]), dtype=complex)
    out[0] = x0
    for a, b, key in key_runs(keys):
        power = np.asarray(maps[key], dtype=complex)
        m = 1
        while True:
            count = min(m, b - a - m + 1)
            out[a + m : a + m + count] = out[a : a + count] @ power.T
            if a + m + count > b:
                break
            power = power @ power
            m *= 2
    return out


def time_ordered_propagator(
    schedule: OperatorSchedule,
    t0: float,
    t1: float,
    steps: int = DEFAULT_SUBSTEPS,
) -> Operator:
    """Time-ordered exp(-i integral of K dt) over [t0, t1].

    Composes exact substep exponentials of the midpoint generator, which is
    exact for generators constant on each substep and second-order accurate
    for smoothly varying ones. Each run of steps in one cell contributes one
    matrix power.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    total = np.eye(schedule.dim, dtype=complex)
    if t1 == t0:
        return Operator(total)
    maps, cells = step_propagators(schedule, t0, t1, steps)
    for a, b, cell in key_runs(cells):
        total = np.linalg.matrix_power(maps[cell], b - a) @ total
    return Operator(total)


def wrap_phase(x: float) -> float:
    """Reduce an angle (difference) into (-pi, pi]."""
    y = math.remainder(x, math.tau)
    return y if y > -math.pi else y + math.tau
