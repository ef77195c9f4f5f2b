"""Dense operators, time schedules, and exact small-matrix propagation.

Everything downstream works with explicit complex matrices on small Hilbert
spaces (qubits, truncated oscillators), so operators are plain numpy arrays
wrapped in thin immutable containers. Time dependence is restricted to
piecewise-constant schedules on a uniform grid, which keeps propagation over
a grid an exact product of per-cell maps.

A time t lies in cell floor(t / cell), the right end of the grid in the last
cell. Step k of a uniform time grid of width dt from 0 uses the cell that
holds its midpoint (k + 1/2) dt. `Schedule.step_cells` implements this
step-to-cell rule; `step_runs` maps a whole grid to the (start, stop, cell)
runs of consecutive steps in one cell, which every propagator consumes. It
applies the rule to blocks of steps, so finding the runs takes no array of
the grid's size.

Consecutive steps in one cell apply the same linear map, so a run of them is
propagated by powers of that cell's map rather than step by step. The maps
of a propagation's cells are one stack, keyed by row (`keyed_runs`), and
`MapPowers` is its one power ladder: level i holds every key's M^(2^i),
formed by one stacked product, up to a depth set by the map size, the
number of keys and the steps. `MapPowers.fill` fills all runs of a
propagation at once, block by block (`run_blocks`: consecutive runs of one
length whose keys step evenly). It carries the block's first state to the
last column of each of its runs, then fills the block with one stacked
product per doubling level, so R runs of L steps cost about log2(L)
products and at most R carries. These are plain matrix products, exact
up to roundoff for any map, normal or not. Every deterministic
propagation takes its states from `run_windows`, in windows of grid
columns, as the columns of C-ordered (..., d, width + 1) arrays, so each
product is a d x d map times a contiguous block of columns and any
reduction over the d entries of a state runs along rows. A window a full
width into a run is one product with the window before it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

DEFAULT_SUBSTEPS = 4096

# Relative tolerance below which a grid lookup just outside the covered
# interval is attributed to float roundoff on the endpoint.
_GRID_SLACK = 1e-9
# Indices whose keys `index_runs` evaluates at once.
RUN_BLOCK = 2**12


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


def binary_scaled(values: np.ndarray, exponent: int) -> np.ndarray:
    """values * 2**exponent in two halves, as 2**exponent alone can overflow
    for subnormal values; exact unless the result underflows or overflows."""
    half = exponent // 2
    return values * 2.0**half * 2.0 ** (exponent - half)


def unit_vector(vec: np.ndarray) -> np.ndarray:
    """vec / ||vec|| for a finite vector that is not zero.

    The entries are first divided by the power of two just above their
    largest modulus, so the squares in the norm cannot underflow: [0, 1e-300]
    gives [0, 1]. Powers of two scale exactly, so wherever the plain norm does
    not underflow or overflow the result is vec / ||vec|| to the last bit.
    """
    vec = binary_scaled(vec, -int(np.frexp(np.abs(vec).max())[1]))
    return vec / np.linalg.norm(vec)


def state_vector(psi, dim: int) -> np.ndarray:
    """Amplitudes of psi (a PureState or an array) as a complex vector,
    refused unless there are dim of them and one is nonzero."""
    vec = np.asarray(getattr(psi, "amplitudes", psi), dtype=complex).reshape(-1)
    if vec.shape[0] != dim:
        raise ValueError(f"state dimension {vec.shape[0]} differs from the model's {dim}")
    # A norm would underflow to 0 for tiny nonzero amplitudes.
    if not vec.any():
        raise ValueError("state vector must be nonzero")
    return vec


def normalized_state_vector(psi, dim: int, name: str) -> np.ndarray:
    """`state_vector`, refused unless its norm is 1 within 1e-12."""
    vec = state_vector(psi, dim)
    normalized_states(vec[np.newaxis], dim, name)
    return vec


def normalized_states(states, dim: int, name: str) -> np.ndarray:
    """A (P, d) stack of state vectors as a complex array, refused as
    `normalized_state_vector` refuses each row."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] != dim:
        raise ValueError(f"state dimension {states.shape[-1]} differs from the model's {dim}")
    if not states.any(axis=1).all():
        raise ValueError("state vector must be nonzero")
    if (np.abs(np.linalg.norm(states, axis=1) - 1.0) > 1e-12).any():
        raise ValueError(f"{name} must be normalized within 1e-12")
    return states


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
        if not self.amplitudes.any():
            raise ValueError("cannot normalize the zero vector")
        return PureState(unit_vector(self.amplitudes))

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
        # A tiny negative phi would round up to 2 pi itself.
        phi = self.phi % math.tau
        object.__setattr__(self, "phi", phi if phi < math.tau else 0.0)


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
    # As in BlochAngles: a tiny negative angle rounds up to 2 pi itself.
    phi[phi == math.tau] = 0.0
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

    def step_cells(self, total_time: float, steps: int, index=None) -> np.ndarray:
        """Cell of each step of the uniform grid of `steps` steps on [0,
        total_time], or of the steps in index, by the step-to-cell rule of
        this module."""
        if not self.covers(0.0, total_time):
            raise ScheduleRangeError(
                f"schedule covers [0, {self.extent}], requested [0, {total_time}]"
            )
        dt = total_time / steps
        k = np.arange(steps) if index is None else np.asarray(index)
        return self.cells_at((k + 0.5) * dt)

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
    cell, count = common_grid((s.cell, len(s.values)) for s in schedules)
    if cell is None:
        return (fn(*(s.values[0] for s in schedules)),), None
    values = tuple(
        fn(*(s.values[0] if s.is_constant else s.values[k] for s in schedules))
        for k in range(count)
    )
    return values, cell


def common_grid(grids) -> tuple[float | None, int]:
    """The (cell, count) grid shared by the piecewise members of (cell,
    count) grids, constants (cell None) broadcasting over it; (None, 1)
    when all are constant. Grids differ when their counts do, or their
    cells by more than 1e-12 of the first piecewise cell."""
    pieces = [(cell, count) for cell, count in grids if cell is not None]
    if not pieces:
        return None, 1
    cell, count = pieces[0]
    for other, n in pieces[1:]:
        if n != count or abs(other - cell) > 1e-12 * cell:
            raise ValueError("piecewise schedules must share a common grid")
    return cell, count


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


# Scaling and squaring with diagonal Pade approximants r_m (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005), Table 2.3 and Algorithm 2.3): r_m is
# accurate to double precision while ||A||_1 <= _PADE_THETA[m].
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    ),
}


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(A) for a dense complex matrix, normal or not, or for each matrix
    of a stack of shape (..., d, d).

    One route for every matrix: scaling and squaring with a diagonal Pade
    approximant (Higham 2005). The lowest degree m in (3, 5, 7, 9) whose
    bound covers ||A||_1 is used as is; above that, A is scaled by 2^-s into
    the degree-13 bound and the result squared s times. With U the odd and V
    the even part of the approximant's numerator, r_m(A) = (V - U)^-1 (V + U)
    is evaluated as I + 2 (V - U)^-1 U, which keeps the small part of a
    near-identity step map to full relative precision. The backward error
    is of the order of unit roundoff for any A, including the non-normal
    no-jump generators of channels that do not commute with H. The matrices
    of a stack that share m and s are evaluated together, each to the same
    bits as alone.
    """
    a = np.asarray(a, dtype=complex)
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    if a.ndim == 2:
        return _pade_exponential(a, *_pade_choice(float(norms)))
    flat = a.reshape(-1, *a.shape[-2:])
    groups: dict[tuple[int, int], list[int]] = {}
    for i, norm in enumerate(norms.reshape(-1).tolist()):
        groups.setdefault(_pade_choice(norm), []).append(i)
    out = np.empty_like(flat)
    for (degree, squarings), members in groups.items():
        out[members] = _pade_exponential(flat[members], degree, squarings)
    return out.reshape(a.shape)


def _pade_choice(norm: float) -> tuple[int, int]:
    """The degree m and the squarings s for a matrix of 1-norm norm."""
    if not math.isfinite(norm):
        raise ValueError("matrix exponential needs finite entries")
    degree = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    squarings = 0
    if norm > _PADE_THETA[13]:
        squarings = math.ceil(math.log2(norm / _PADE_THETA[13]))
    return degree, squarings


def _pade_exponential(a: np.ndarray, degree: int, squarings: int) -> np.ndarray:
    """`matrix_exponential` of a matrix or a stack with one degree and one
    number of squarings."""
    if squarings:
        a = a / 2.0**squarings
    coeffs = _PADE_COEFFS[degree]
    # Even powers I, A^2, ..., A^(m-1) weight both parts.
    powers = [np.eye(a.shape[-1], dtype=complex), a @ a]
    while len(powers) <= degree // 2:
        powers.append(powers[-1] @ powers[1])
    odd = a @ sum(c * p for c, p in zip(coeffs[1::2], powers))
    even = sum(c * p for c, p in zip(coeffs[0::2], powers))
    result = np.linalg.solve(even - odd, 2.0 * odd)
    result += powers[0]
    for _ in range(squarings):
        result = result @ result
    return result


def step_propagators(
    grid: Schedule, generators: np.ndarray, total_time: float, steps: int
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The `cell_maps` of the cells used by the uniform grid on [0,
    total_time], and its `step_runs` keyed by their rows in that stack."""
    cells, runs = keyed_runs(step_runs(grid, total_time, steps))
    return cell_maps(generators, cells, total_time / steps), runs


def cell_maps(generators: np.ndarray, cells, dt: float) -> np.ndarray:
    """The stack of step maps exp(-i dt G_c) of the cells c in cells, G_c
    being row c of the (C, ...) generators, from one `matrix_exponential`;
    each map has the bits of its cell's exponential alone."""
    return matrix_exponential(-1j * dt * generators[list(cells)])


def step_runs(schedule: Schedule, total_time: float, steps: int) -> list[tuple[int, int, int]]:
    """(start, stop, cell) of each run of steps in one cell of the uniform
    grid of `steps` steps on [0, total_time]: `index_runs` of the
    `step_cells`."""
    return index_runs(lambda k: schedule.step_cells(total_time, steps, k), steps)


def index_runs(
    keys_of: Callable[[np.ndarray], np.ndarray], count: int
) -> list[tuple[int, int, int]]:
    """`key_runs` of keys_of(np.arange(count)), with keys_of evaluated on
    blocks of RUN_BLOCK indices and runs merged across block edges, so no
    array grows with count."""
    runs: list[tuple[int, int, int]] = []
    for lo in range(0, count, RUN_BLOCK):
        for a, b, key in key_runs(keys_of(np.arange(lo, min(count, lo + RUN_BLOCK)))):
            if not a and runs and runs[-1][2] == key:
                runs[-1] = (runs[-1][0], lo + b, key)
            else:
                runs.append((lo + a, lo + b, key))
    return runs


def key_runs(keys) -> list[tuple[int, int, int]]:
    """(start, stop, key) of each run of equal consecutive keys."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return []
    edges = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    bounds = [0, *edges.tolist(), len(keys)]
    return [(a, b, int(keys[a])) for a, b in zip(bounds[:-1], bounds[1:])]


def keyed_runs(runs) -> tuple[list, list[tuple[int, int, int]]]:
    """The distinct keys of runs (start, stop, key), and the runs keyed by row."""
    rows: dict = {}
    keyed = [(a, b, rows.setdefault(key, len(rows))) for a, b, key in runs]
    return list(rows), keyed


def real_form(a: np.ndarray) -> np.ndarray:
    """[[Re A, -Im A], [Im A, Re A]] of each m x n matrix A of a (..., m, n)
    stack, as float64 (..., 2m, 2n): A acting on v is this acting on the
    real vector (Re v, Im v), and products of these are those of the
    matrices, up to rounding."""
    a = np.asarray(a, dtype=complex)
    m, n = a.shape[-2:]
    out = np.empty(a.shape[:-2] + (2 * m, 2 * n))
    out[..., :m, :n] = out[..., m:, n:] = a.real
    out[..., m:, :n] = a.imag
    np.negative(a.imag, out=out[..., :m, n:])
    return out


class MapPowers:
    """The levels M^(2^i) of every map of a (K, ..., D, D) stack, one map
    per key, each level formed by one stacked product on first use, in the
    maps' dtype: complex maps, or their `real_form`s.

    `fill` uses at most `depth` = max(1, steps // (K D)) levels for a
    propagation of `steps` steps, so that its squarings, K D^3 each, never
    cost more than the steps' column products, steps D^2; past its top
    level a run is filled in blocks of the top power. At D = 4 with at most
    16 keys and 2048 or more steps, the bench's shapes, the depth is above
    the bit length of every run, so it changes nothing there. `square` and
    `power` form whatever level they are asked for, so binary lifting keeps
    every level it uses.
    """

    def __init__(self, maps, steps: int) -> None:
        self.squares = [np.asarray(maps)]
        keys, dim = self.squares[0].shape[0], self.squares[0].shape[-1]
        self.depth = max(1, steps // max(1, keys * dim))

    def square(self, level: int) -> np.ndarray:
        """Every key's M^(2^level)."""
        while len(self.squares) <= level:
            self.squares.append(self.squares[-1] @ self.squares[-1])
        return self.squares[level]

    def power(self, n: int) -> np.ndarray:
        """Every key's M^n for n >= 1: the product of the levels for the
        bits of n, lowest bit first."""
        levels = [i for i in range(n.bit_length()) if n >> i & 1]
        out = self.square(levels[0])
        for i in levels[1:]:
            out = self.square(i) @ out
        return out

    def _chain(self, column: int) -> list[int]:
        """The levels of the steps that lead a run's column 0 to `column`,
        first applied first: the bits of column, lowest first, below twice
        the top power."""
        levels = []
        while column:
            levels.append(min(column.bit_length() - 1, self.depth - 1))
            column -= 1 << levels[-1]
        return levels[::-1]

    def fill(self, out: np.ndarray, runs) -> None:
        """Fill columns a+1..b of out, a (..., D, N) array, for every run
        (a, b, key) of runs, which tile their columns in order, from column
        a of the first, by x_{k+1} = M x_k with M the map of key.

        A run of L steps alone is filled by doubling: a step puts
        M^m @ out[..., a : a+m] into out[..., a+m : a+2m], clipped at b, and
        m doubles up to the top level and then stays, so L columns cost
        about log2(L) products. All runs are filled at once, one `run_blocks`
        block after another: consecutive runs of one length whose keys step
        evenly. The carry first takes the block's first column through its
        runs: the last column of every run but the very last is the product
        of its `_chain` levels, popcount(L) products below the depth, lowest
        bit first. Then every doubling step of the block is one stacked
        product over strided (R, ..., D, L + 1) views of out. Every column a
        run fills is the one a fill of that run alone from the same first
        column gives, bit for bit, but the carried last columns; those are
        too where L is a power of two within the depth, as the doubling then
        forms column b by the same one product. NumPy cannot rule out that a
        stacked product's strided source overlaps its output, so the steps
        of R > 1 runs write through one buffer of half the block's columns,
        and only a last step wider than one column, where L is not a power
        of two, lets NumPy copy its source.
        """
        blocks = run_blocks([run for run in runs if run[1] > run[0]])
        top = self.depth - 1
        for i, (a, count, length, key, step) in enumerate(blocks):
            # Runs of the block whose last column the carry holds.
            carried = count - (i == len(blocks) - 1)
            chain = [self.square(level) for level in self._chain(length)] if carried else []
            for r in range(carried):
                column = out[..., a + r * length : a + r * length + 1]
                for maps in chain[:-1]:
                    column = np.matmul(maps[key + r * step], column)
                b = a + (r + 1) * length
                np.matmul(chain[-1][key + r * step], column, out=out[..., b : b + 1])
            view = run_view(out, a, count, length, length + 1)
            # NumPy cannot prove the strided views of R > 1 runs disjoint and
            # would copy the source of every product, one heap block per level;
            # the products inside the runs go through this one buffer instead.
            part = np.empty((*view.shape[:-1], (length + 1) // 2), out.dtype) if count > 1 else None
            # Step by step, columns lo .. lo + width - 1 are M^shift times
            # those shift before them; shift doubles up to the top level.
            lo, level = 1, 0
            while lo <= length:
                shift = 1 << level
                width = min(shift, length + 1 - lo)
                maps = key_view(self.square(level), key, step, count)
                src, dst = view[..., lo - shift : lo - shift + width], view[..., lo : lo + width]
                if lo + width <= length:
                    if part is None:
                        np.matmul(maps, src, out=dst)
                    else:
                        np.matmul(maps, src, out=part[..., :width])
                        dst[...] = part[..., :width]
                elif width == 1:
                    # The last column alone: only a run the carry left has it to form.
                    if carried < count:
                        np.matmul(maps[carried:], src[carried:], out=dst[carried:])
                else:
                    # NumPy reads a source that overlaps its output first,
                    # so the next runs start from the carried columns.
                    kept = view[:carried, ..., length].copy()
                    np.matmul(maps, src, out=dst)
                    view[:carried, ..., length] = kept
                lo, level = lo + shift, min(level + 1, top)


def run_blocks(runs) -> list[tuple[int, int, int, int, int]]:
    """The runs (a, b, key), which tile their columns in order, as blocks
    (a, count, length, key, key_step): each a longest stretch of
    consecutive runs of one length whose keys step evenly, its run r being
    (a + r length, a + (r + 1) length, key + r key_step)."""
    blocks: list[tuple[int, int, int, int, int]] = []
    for a, b, key in runs:
        if blocks:
            start, count, length, first, step = blocks[-1]
            step = key - first if count == 1 else step
            if b - a == length and key == first + count * step:
                blocks[-1] = (start, count + 1, length, first, step)
                continue
        blocks.append((a, 1, b - a, key, 0))
    return blocks


def run_view(arr: np.ndarray, a: int, count: int, stride: int, width: int) -> np.ndarray:
    """The (count, ..., width) view of the last axis of arr whose row r is
    columns a + r stride .. a + r stride + width - 1; rows overlap where
    width exceeds stride."""
    if count == 1:
        return arr[np.newaxis, ..., a : a + width]
    shape, strides = (count, *arr.shape[:-1], width), (stride * arr.strides[-1], *arr.strides)
    return as_strided(arr[..., a:], shape, strides)


def key_view(stack: np.ndarray, key: int, step: int, count: int) -> np.ndarray:
    """Rows key, key + step, ... of stack, count of them, as a view."""
    if count == 1:
        return stack[key : key + 1]
    if step:
        return stack[key::step][:count]
    return np.broadcast_to(stack[key], (count, *stack.shape[1:]))


def run_windows(powers: MapPowers, runs, x0, width: int):
    """Yield (start, x) for each window of `width` grid columns, in order,
    of the states x_0..x_n of x_{k+1} = M_key @ x_k for the steps k of each
    run (start, stop, key), from the one ladder powers of (K, ..., D, D)
    maps and (..., D) x0; the runs tile [0, n).

    x is an (..., D, width + 1) array of x0's dtype: column j + 1 holds
    grid column start + j, and column 0 the grid column before it. A second
    buffer is held only when width is less than the n + 1 grid columns.
    Where a run began at least a width back, a window's columns in it are
    one product of the previous window's with every key's map to the power
    width (one `MapPowers.power`, formed on first use); the runs that start
    inside a window, and a run's first columns, are one `MapPowers.fill`
    of them all. The next window continues from columns 1.. of the one
    yielded, so a caller may rescale those in place.
    """
    x0 = np.asarray(x0)
    cols = (runs[-1][1] if runs else 0) + 1
    buffers = [np.empty((*x0.shape, width + 1), x0.dtype) for _ in range(1 + (width < cols))]
    x, last = buffers[0], buffers[-1]
    x[..., 1] = x0
    across = None
    # Run (a, b, key) takes the states of columns a..b-1 to a+1..b.
    plans = window_parts([(a + 1, b + 1, key, a) for a, b, key in runs], width)
    for start in range(0, cols, width):
        plan = next(plans, [])
        if start:
            x, last = last, x
            x[..., 0] = last[..., width]
        if plan and plan[0][0] - width >= plan[0][3]:
            # A full width into the run: one product with the last window.
            lo, hi, key, _ = plan.pop(0)
            if across is None:
                across = powers.power(width)
            i, j = lo - start + 1, hi - start + 1
            np.matmul(across[key], last[..., i:j], out=x[..., i:j])
        if plan:
            powers.fill(x, [(lo - start, hi - start, key) for lo, hi, key, _ in plan])
        yield start, x


def window_parts(ranges, width: int):
    """For each window of `width` grid columns in turn, the list of the
    parts (lo, hi, *rest) of the column ranges [lo, hi) in ranges (lo, hi,
    *rest) that fall in it; ranges tile the grid in order."""
    i, start = 0, 0
    while i < len(ranges):
        stop, parts = start + width, []
        while i < len(ranges) and ranges[i][0] < stop:
            lo, hi, *rest = ranges[i]
            parts.append((max(lo, start), min(hi, stop), *rest))
            if hi > stop:
                break
            i += 1
        yield parts
        start = stop


def simpson_weights(n: int, dx: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Weights c_k, k in [lo, hi), of the composite Simpson rule on n >= 2
    samples of spacing dx: the integral is the sum of c_k y_k.

    An odd sample count uses the plain 1-4-2-...-4-1 rule over 3. An even
    count uses it on all but the last interval and adds Cartwright's
    correction for that interval (K. V. Cartwright, J. Math. Sci. Math.
    Educ. 12, 1 (2017)); two samples give the trapezoid. Each weight is
    rounded as SciPy's `integrate.simpson(e_k, dx=dx)` of the unit vector
    e_k. The interior weights alternate with k, so the weights of a span of
    columns are formed from its indices alone and a sum over a grid can be
    split at any column.
    """
    hi = n if hi is None else hi
    if n == 2:
        return np.full(hi - lo, 0.5 * dx)
    third = dx / 3.0
    out = np.full(hi - lo, 2.0 * third)
    out[(lo + 1) % 2 :: 2] = 4.0 * third
    ends = {0: third}
    if n % 2:
        ends[n - 1] = third
    else:
        # Cartwright's weights for spacings h0 = h1 = h, evaluated as the
        # general formula so that they round as SciPy's do.
        h = np.float64(dx)
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = 1 * h**3 / (6 * h * (h + h))
        ends.update({n - 3: 4.0 * third - eta, n - 2: third + beta, n - 1: alpha})
    for k, weight in ends.items():
        if lo <= k < hi:
            out[k - lo] = weight
    return out


def wrap_phase(x: float) -> float:
    """Reduce an angle (difference) into (-pi, pi]."""
    y = math.remainder(x, math.tau)
    return y if y > -math.pi else y + math.tau
