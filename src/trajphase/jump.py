"""Jump unraveling of a Lindblad model.

Between jumps a trajectory follows the non-Hermitian generator

    K_tilde(t) = H(t) - (i * strength / 2) * sum_m L_m^dag L_m,

whose norm loss encodes the no-jump probability. The geometric phase of the
no-jump branch is

    phase = arg<psi(0)|psi(T)> + integral of <psi|K|psi> / <psi|psi> dt,

with K the Hermitian Hamiltonian of the (possibly shifted) model and the
overlap argument tracked continuously along the path. Every propagator
here reads the one lowered form, a `lindblad.LoweredSweep`: the tracker
takes the (P, cells, d, d) stacks of K_tilde and K of a sweep and the (P,
d) initial states, with no per-point set-up (`sweep_no_jump_phases`;
`no_jump_geometric_phases` lowers its points first), and the jump sampler
and the Kraus sets read the rows of one point. The no-jump branch, the
tracker and the jump sampler take the cells their steps use, those cells'
step maps and the keyed runs from `operators.step_propagators`, the plan
the master equation takes too. The tracker propagates the points of one
lowered sweep as one stack, in windows of grid columns within
STACK_BYTES, in real arithmetic: a state is (Re psi, Im psi) and a map
its `operators.real_form`. It forms each column's norm, overlap and
integrand once, and takes a window's decay, crossing and calm decisions
from one reduction of a row each wherever that settles them; the integral
is the composite Simpson rule, summed window by window from the rule's
weights (`operators.simpson_weights`), so no array spans the grid. The
discrete-time monitoring picture is exposed through Kraus sets F_0 = 1 -
i K_tilde dt, F_m = sqrt(strength * dt) L_m and the connection matrix
relating shifted and unshifted sets.

Jump trajectories follow the waiting-time law on a uniform grid (Dalibard,
Castin and Molmer, PRL 68, 580 (1992); Plenio and Knight, RMP 70, 101
(1998)). From a normalized state at grid point p a trajectory draws (r, u)
from its own stream and follows psi~_{k+1} = U_k psi~_k, psi~_p that state.
It jumps during the first step k at which ||psi~_{k+1}||^2 < r: channel m of
step k's cell, chosen by u with probability proportional to
||(L_m - f_m) psi~_k||^2, acts on psi~_k, and the normalized result is the
state at k + 1, where the trajectory starts again. Jump times, k * dt,
resolve only to dt; the law departs from continuous time at O(strength *
dt). A jump whose total probability strength * dt * sum_m
||(L_m - f_m) psi||^2, psi normalized, exceeds 1 raises StepSizeError. An
ensemble lowers its model once, into one `_JumpSampler`, and every chunk
job carries it in the layout that `_ensemble` owns.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import NamedTuple, Optional, Union

import numpy as np

from ._ensemble import DEFAULT_CHUNK, chunk_jobs, map_ordered, mean_and_error, run_chunk
from ._ensemble import sampling_grid, trajectory_words
from .lindblad import (
    DensityMatrix,
    LindbladModel,
    LoweredSweep,
    ShiftSet,
    lower_model,
    lower_points,
    shift_is_hidden,
)
from .operators import (
    DEFAULT_SUBSTEPS,
    MapPowers,
    Operator,
    OperatorSchedule,
    PureState,
    Schedule,
    binary_scaled,
    index_runs,
    key_view,
    keyed_runs,
    normalized_state_vector,
    normalized_states,
    real_form,
    run_blocks,
    run_view,
    run_windows,
    simpson_weights,
    state_vector,
    step_propagators,
    unit_vector,
    window_parts,
)

# Unused here; bench/tracing.py wraps these names on this module.
from ._ensemble import trajectory_seeds  # noqa: F401
from .lindblad import apply_shift, shifted_hamiltonian  # noqa: F401
from .operators import combine_schedules, matrix_exponential  # noqa: F401

# Overlap magnitudes below this fraction of the norm product are treated as
# equator crossings where the accumulated argument has no stable branch.
BRANCH_EPS = 1e-10
NORM_FLOOR = 1e-150
MAX_GRID_DOUBLINGS = 7
# Bytes of the window buffers the no-jump tracker holds for the points it
# propagates together, a window's width + 1 columns each. What else it holds
# lies outside this budget and grows with the points times the cells: its
# step maps, its readout and its `MapPowers` ladder, one (K, G, 2d, 2d)
# level per doubling of a run. tracemalloc peaks of `sweep_no_jump_phases`
# on the dephasing qubit at 4096 steps are 1,396 KiB at 63 points of one
# cell, 2,878 KiB at 63 points of 16 cells and 7,173 KiB at 77 points of
# 64 cells. 1.25 MiB sits within a core's 2 MiB L2 and
# tracks the 63-point bench sweep as one stack of 27 windows of 157
# columns, where 640 KiB split it into two stacks of 30 windows. On that
# sweep (2 vCPUs, one BLAS thread, interleaved in-process calls) this
# budget alone took the tracker from 9.3 to 7.9 ms, about 45 us per window
# saved, and 1 MiB, 1.5 MiB and 2 MiB took 7%, 3% and 9% longer than 1.25
# MiB. With the window loop's whole-row decisions, `wall_rel` went from
# 0.0951 to 0.0753 (medians of 10 alternating 24 s pairs, 10 of 10 lower)
# and peak RSS from 40.1 to 41.1 MB.
STACK_BYTES = 5 * 2**18
# Fewest grid columns a window may take before its stack is split. At 1.25
# MiB, 64 and 128 tracked the 303-point fig1 sweep in the same time (two
# stacks of 152 points in 64-column windows, or four of 76 in 130-column
# ones), 27% faster in process than 640 KiB's nine stacks of 34; 256 took
# 12% longer there, and on the bench sweep it split the stack and took 14%
# longer.
MIN_WINDOW = 128
# (r, u) pairs a trajectory draws at a time; it takes one per jump, plus one.
PAIR_BLOCK = 8


class TotalDecayError(RuntimeError):
    """No-jump branch norm underflowed; nothing left to track."""


class BranchTrackingError(RuntimeError):
    """Overlap argument cannot be tracked on any affordable grid."""


class StepSizeError(RuntimeError):
    """Total jump probability in one step left the valid range."""


class JumpEvent(NamedTuple):
    time: float
    channel: int


@dataclasses.dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """States on a uniform grid plus the jump events that produced them.

    states are unnormalized for deterministic no-jump records and normalized
    for sampled records; survival is the final relative squared norm for the
    former and the no-jump indicator for the latter.
    """

    times: np.ndarray
    states: np.ndarray
    jumps: tuple[JumpEvent, ...]
    survival: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if states.shape[0] != times.shape[0]:
            raise ValueError("times and states must have matching lengths")
        jump_times = [event.time for event in self.jumps]
        if any(b <= a for a, b in zip(jump_times, jump_times[1:])):
            raise ValueError("jump events must be strictly time-ordered")
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "jumps", tuple(self.jumps))

    @property
    def final_state(self) -> PureState:
        return PureState(self.states[-1])


@dataclasses.dataclass(frozen=True)
class GeometricPhaseResult:
    """phase = overlap_arg + dynamical_term, with branch bookkeeping.

    branch_crossings lists grid times where the overlap passed within
    BRANCH_EPS of zero (relative); across such points the tracked argument
    is defined only modulo 2 pi.
    """

    phase: float
    overlap_arg: float
    dynamical_term: float
    final_norm: float
    grid_steps: int
    branch_crossings: tuple[float, ...] = ()


@dataclasses.dataclass(frozen=True, eq=False)
class KrausSet:
    """First-order Kraus operators for one monitoring time step."""

    delta_t: float
    ops: tuple[Operator, ...]

    def apply(self, rho: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
        arr = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        return sum(op.entries @ arr @ op.entries.conj().T for op in self.ops)

    def completeness_residual(self) -> float:
        """Max-entry norm of sum_mu F_mu^dag F_mu - identity (O(delta_t^2))."""
        total = sum(op.entries.conj().T @ op.entries for op in self.ops)
        return float(np.max(np.abs(total - np.eye(self.ops[0].dim))))


@dataclasses.dataclass(frozen=True, eq=False)
class JumpEnsembleResult:
    """Ensemble-averaged projector estimate at T: times is [T], estimates
    and std_error are (1, d, d)."""

    times: np.ndarray
    estimates: np.ndarray
    std_error: np.ndarray
    mean_jumps: float
    mean_jumps_error: float
    n_trajectories: int
    # Jump count per trajectory, in trajectory index order.
    jump_counts: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def no_jump_hamiltonian(model: LindbladModel) -> OperatorSchedule:
    """K_tilde(t) = H(t) - (i * strength / 2) * sum_m L_m(t)^dag L_m(t)."""
    sweep = lower_model(model)
    return sweep.schedule(sweep.k_tilde[0])


def shifted_no_jump_hamiltonian(model: LindbladModel, shifts: ShiftSet) -> OperatorSchedule:
    """No-jump generator of the shifted model,
    H - (i * strength / 2) * sum (L - f)^dag (L - f)."""
    sweep = lower_model(model, shifts)
    return sweep.schedule(sweep.k_tilde[0])


def propagate_no_jump(
    generator: OperatorSchedule,
    psi0,
    total_time: float,
    steps: int = DEFAULT_SUBSTEPS,
) -> TrajectoryRecord:
    """Deterministic propagation under the no-jump generator.

    Uses the exponential midpoint rule per substep; a run of substeps in one
    cell is propagated by powers of that cell's exponential, in the one
    window of `operators.run_windows` that spans the grid. survival is the
    final squared norm relative to the initial one, clamped to [0, 1];
    TotalDecayError is raised once the norm falls below NORM_FLOOR times
    the initial one. psi0 is propagated scaled by a power of two into
    [1/2, 1), so its norms cannot underflow. The record's states are the
    transpose of columns 1.. of that C-ordered (d, steps + 2) window; the
    phase tracker keeps none. The maps and runs are those of
    `operators.step_propagators`, which refuses steps < 1 and total_time < 0.
    """
    vec = state_vector(psi0, generator.dim)
    gens = np.stack([op.entries for op in generator.values])
    _, maps, runs = step_propagators(generator, gens, total_time, steps)
    dt = total_time / steps
    exponent = int(np.frexp(np.abs(vec).max())[1])
    x0 = binary_scaled(vec, -exponent)
    [(_, out)] = run_windows(MapPowers(maps, steps), runs, x0, steps + 1)
    states = out[:, 1:].T

    sq_norms = _squared_norms(out[:, 1:])
    decayed = sq_norms < NORM_FLOOR**2 * sq_norms[0]
    if decayed.any():
        raise _decay_error(int(np.argmax(decayed)) * dt)
    times = np.arange(steps + 1) * dt
    survival = min(1.0, max(0.0, float(sq_norms[-1] / sq_norms[0])))
    if exponent:
        states = binary_scaled(states, exponent)
    return TrajectoryRecord(times, states, (), survival)


def _decay_error(time: float) -> TotalDecayError:
    return TotalDecayError(
        f"state norm underflowed below {NORM_FLOOR:g} of the initial norm at t = {time:g}"
    )


def no_jump_probability(record: TrajectoryRecord) -> float:
    """Probability that the monitored system follows the no-jump branch."""
    if record.jumps:
        raise ValueError("record contains jumps; survival is not a branch probability")
    return record.survival


def _window_column_bytes(dim: int) -> int:
    """Bytes of `_track_stack`'s window buffers per point and grid column:
    two windows of 2 dim real state rows, one of 2 dim + 2 readout rows,
    two float rows and three flag rows."""
    return 8 * (2 * 2 * dim + 2 * dim + 2 + 2) + 3


def _flag_crossings(size, sq, limit, bound, out) -> np.ndarray:
    """Flag the overlaps z within BRANCH_EPS of zero relative to the norms,
    |z|^2 < BRANCH_EPS^2 |psi0|^2 |psi|^2, from size = |z|^2, the states'
    squared norms sq and limit = BRANCH_EPS^2 |psi0|^2; bound receives the
    right side. The decisions are those of |z| / (|psi0| |psi|) <
    BRANCH_EPS, at zeros, NaNs and infinities too, up to rounding at the
    boundary itself, reached without abs, sqrt or a division."""
    return np.less(size, np.einsum("gk,gj->gk", sq, limit, out=bound), out=out)


def _turns(re, im, real, imag, scratch) -> None:
    """Into entries 1.. of the flat rows real and imag, the parts of the turns
    z_k conj z_{k-1}, z_k = re[k] + i im[k], as NumPy's complex product rounds them."""
    np.multiply(re[1:], re[:-1], out=real[1:])
    real[1:] += np.multiply(im[1:], im[:-1], out=scratch[1:])
    np.multiply(im[1:], re[:-1], out=imag[1:])
    imag[1:] -= np.multiply(re[1:], im[:-1], out=scratch[1:])


def _flag_calm_steps(real, increments, sums, out) -> np.ndarray:
    """Flag the steps that turn the overlap by at most pi/2, from the Re
    parts real of the turns z_k conj z_{k-1}, their arguments increments and
    the sums of those that count: real >= 0 and the increment is not NaN.
    The decisions are those of |increment| <= pi/2, but for an argument just
    past pi/2 that rounds to pi/2, and a turn of (-0, +-0) between overlaps
    of which one is zero, which is a flagged crossing."""
    np.greater_equal(real, 0.0, out=out)
    # An increment is NaN where its turn has a NaN part; then so is its sum.
    if np.isnan(sums).any():
        np.logical_and(out, ~np.isnan(increments), out=out)
    return out


def _track_stack(gens, herms, vecs, grid: Schedule, total_time: float, steps: int) -> list:
    """`_tracked_phases` on one grid of `steps` steps for G points that
    share a dimension and a schedule grid, from their (G, C, d, d) stacks of
    generators gens and Hamiltonians herms over its cells and their (G, d)
    initial states vecs. Each outcome is a GeometricPhaseResult, the
    point's error, or None where a step away from a flagged crossing turned
    the overlap by more than pi/2.

    The arithmetic is real: a state psi is (Re psi, Im psi) and a matrix
    acts as its `real_form`. The states are the columns of the (G, 2d,
    width + 1) windows of `operators.run_windows` over the grid, column 0
    of a window holding the grid column before it, from one `MapPowers`
    of the `real_form`s of the (K, G, d, d) step maps, with the runs, that
    `operators.step_propagators` plans for gens.swapaxes(0, 1); it refuses
    steps < 1 and total_time < 0. One stacked product per `run_blocks`
    block of the window's runs over the grid columns reads each column into
    (2d + 2, G, width + 1) rows: K psi, then the Re and Im rows of z =
    <psi0|psi>. Each column's squared norm, |z|^2, integrand value, turn
    z_k conj z_{k-1} and its argument are formed once, by einsums or by
    ufuncs on flat or contiguous rows, as NumPy copies a strided or
    broadcast 2-D ufunc operand; the overlap and crossing flag of a
    window's last column carry to the next. A window's decisions read
    whole rows first: no point has decayed where its least norm is at least
    the highest floor, no overlap is a crossing where its least |z|^2 is at
    least the largest limit times its largest norm, and every step is calm
    where its least turn Re part is >= 0 and no increment is NaN. Only a
    window that one of these tests does not settle takes that decision
    point by point or column by column, by the rules of `_flag_crossings`
    and `_flag_calm_steps`. Each window adds its integrand values times
    their `simpson_weights`, formed once per start parity for the windows
    inside the grid, to the running dynamical terms. The initial
    states are scaled by powers of two into [1/2, 1), like
    `propagate_no_jump`'s, and so is the bra; every quantity but the final
    norm is independent of that scale.
    """
    # The real forms of the (K, G, d, d) maps of the cells the steps use (the
    # complex maps are let go, or they would add to the peak memory) and the
    # runs over the steps; for reading, the runs over the grid columns.
    _, maps, runs = step_propagators(grid, gens.swapaxes(0, 1), total_time, steps)
    maps = real_form(maps)
    count, dim = vecs.shape
    dt = total_time / steps
    cols = steps + 1
    exponents = np.frexp(np.abs(vecs).max(axis=1))[1]
    x0 = binary_scaled(vecs, -exponents[:, np.newaxis])
    read_cells, point_runs = keyed_runs(index_runs(lambda k: grid.cells_at(k * dt), cols))
    powers = MapPowers(maps, steps)
    # readout[key] is the real form of the cell's K over that of the bra, whose
    # rows (Re psi0, Im psi0) and (-Im psi0, Re psi0) read Re z and Im z.
    readout = np.empty((len(read_cells), count, 2 * dim + 2, 2 * dim))
    readout[:, :, : 2 * dim] = real_form(herms[:, read_cells]).swapaxes(0, 1)
    readout[:, :, 2 * dim :] = real_form(x0.conj()[:, np.newaxis])
    # The buffers hold a window's width + 1 columns.
    width = max(1, min(cols, STACK_BYTES // (count * _window_column_bytes(dim)) - 1))
    windows = run_windows(powers, runs, np.concatenate([x0.real, x0.imag], axis=1), width)
    read_parts = window_parts(point_runs, width)

    # The Simpson weights of a window inside the grid (0 < start <= inside)
    # depend only on its start's parity; the windows at width and 2 width
    # give both.
    inside = cols - 3 - width
    starts = [s for s in (width, 2 * width) if s <= inside]
    inner = {s % 2: simpson_weights(cols, dt, s, s + width) for s in starts}
    y = np.empty((2 * dim + 2, count, width + 1))
    y_out, z = y.swapaxes(0, 1), y[2 * dim :]
    # Flat (G, width + 1) rows: norms, then scratch; integrand, |z|^2, then
    # turns' Re parts. Once the integrand is formed, the K psi rows of y take
    # the crossing bounds, then the turns' Im parts and increments. Flags:
    # crossings; calm steps; steps next to a crossing. Turn k is the step
    # into k.
    rows = np.empty((2, count * (width + 1)))
    free = y[:2].reshape(2, -1)
    real, imag = rows[1], free[1]
    flags = np.zeros((3, count * (width + 1)), bool)
    cross = flags[0].reshape(count, width + 1)
    outcomes: list = [None] * count
    overlap_arg, dynamical = np.zeros(count), np.zeros(count)
    calm = np.ones(count, bool)
    crossings: list[list[int]] = [[] for _ in range(count)]
    viewed_span = 0
    # Decayed points ride along to the end; their zeros must not warn.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for (start, x), read_plan in zip(windows, read_parts):
            span = min(width, cols - start)
            if start:
                z[:, :, 0] = z[:, :, width]
                cross[:, 0] = cross[:, width]
            for lo, size, length, key, step in run_blocks(read_plan):
                i = lo - start + 1
                np.matmul(
                    key_view(readout, key, step, size),
                    run_view(x, i, size, length, length),
                    out=run_view(y_out, i, size, length, length),
                )

            now = slice(1, span + 1)
            if span != viewed_span:
                sq, mag, den = (r[: count * span].reshape(count, span) for r in (*rows, free[0]))
                viewed_span = span
            xs = x[:, :, now]
            np.einsum("gdk,gdk->gk", xs, xs, out=sq)
            np.einsum("gdk,dgk->gk", xs, y[: 2 * dim, :, now], out=mag)
            np.divide(mag, sq, out=mag)
            ends = not 0 < start <= inside
            rule = simpson_weights(cols, dt, start, start + span) if ends else inner[start % 2]
            dynamical += np.einsum("gk,k->g", mag, rule)
            if not start:
                floor = NORM_FLOOR**2 * sq[:, 0]
                limit = BRANCH_EPS**2 * sq[:, :1]
                highest, widest = floor.max(), limit.max()

            # A point has decayed where a norm is below its floor; fmin skips
            # NaNs. Only a window with a norm below the highest floor, or a
            # NaN, can hold one.
            if not sq.min() >= highest:
                decayed = np.flatnonzero(np.fmin.reduce(sq, axis=1) < floor).tolist()
                for g in decayed:
                    if outcomes[g] is None:
                        outcomes[g] = _decay_error((start + int(np.argmax(sq[g] < floor[g]))) * dt)
                if decayed and None not in outcomes:
                    return outcomes

            np.einsum("cgk,cgk->gk", z[:, :, now], z[:, :, now], out=mag)
            # No |z|^2 is below its bound where the least is at least the
            # largest limit times the largest norm; a NaN fails that test.
            if mag.min() >= widest * sq.max():
                cross[:, now] = False
            else:
                _flag_crossings(mag, sq, limit, den, cross[:, now])
                # Column 0 holds the last window's flags; a flag there finds none here.
                if flags[0].any():
                    for g, k in zip(*(v.tolist() for v in np.nonzero(cross[:, now]))):
                        crossings[g].append(start + k)
            if start + span == cols:
                final = sq[:, span - 1].tolist()

            # Turns into columns lo..span; the grid's column 0 has none. The
            # norms' row is free now. A turn that does not count gets Re part
            # 1, so that the flat row's least Re part is that of those that do.
            lo = 1 if start else 2
            _turns(z[0].reshape(-1), z[1].reshape(-1), real, imag, rows[0])
            turns = real.reshape(count, width + 1)
            turns[:, :lo] = 1.0
            if span < width:
                turns[:, span + 1 :] = 1.0
            args = np.arctan2(imag, real, out=imag)
            sums = args.reshape(count, width + 1)[:, lo : span + 1].sum(axis=1)
            overlap_arg += sums
            # Where every turn has Re part >= 0 and no increment is NaN, every
            # step is calm, next to a crossing or not.
            if not real.min() >= 0.0 or np.isnan(sums).any():
                near = np.logical_or(flags[0, 1:], flags[0, :-1], out=flags[2, 1:])
                steps_ok = _flag_calm_steps(real[1:], args[1:], sums, flags[1, 1:])
                np.logical_or(steps_ok, near, out=steps_ok)
                calm &= flags[1].reshape(count, width + 1)[:, lo : span + 1].all(axis=1)

    # A state that is not finite makes every later one so, so the final
    # overlap is finite exactly when all are (short of |z| overflowing).
    ends_ok = (~cross[:, span] & np.isfinite(z[:, :, span]).all(axis=0)).tolist()
    terms = dynamical.tolist() if total_time > 0 else [0.0] * count
    for g, (arg, term, ok) in enumerate(zip(overlap_arg.tolist(), terms, calm.tolist())):
        if outcomes[g] is not None or not ok:
            continue
        if not ends_ok[g]:
            outcomes[g] = BranchTrackingError(
                "overlap with the initial state vanishes at the endpoint; "
                "the geometric phase is undefined there"
            )
            continue
        outcomes[g] = GeometricPhaseResult(
            phase=arg + term,
            overlap_arg=arg,
            dynamical_term=term,
            final_norm=math.ldexp(math.sqrt(final[g]), int(exponents[g])),
            grid_steps=steps,
            branch_crossings=tuple(k * dt for k in crossings[g]),
        )
    return outcomes


def _tracked_phases(grid: Schedule, gens, herms, vecs, total_time: float, steps: int) -> list:
    """Branch-tracked no-jump phases of points on one schedule grid, from
    their (P, C, d, d) stacks of the no-jump generator K_tilde and the
    Hermitian K of the dynamical term over the grid's C cells and their
    (P, d) initial states, in order, each a GeometricPhaseResult or the
    BranchTrackingError or TotalDecayError of its point.

    A point's grid doubles, up to MAX_GRID_DOUBLINGS - 1 times, until no
    step away from a flagged crossing turns its overlap by more than pi/2;
    steps < 1 and total_time < 0 are refused, as by `evolve_states`. On
    each grid the points still pending are tracked together by
    `_track_stack` as one stack, whose window buffers take STACK_BYTES;
    its step maps, readout and power ladder come on top and grow with the
    points times the cells. Only where those windows would be narrower
    than MIN_WINDOW grid columns (or the grid) is the stack split, into
    even parts, each at most as many points as fill STACK_BYTES with
    windows of that width.
    """
    outcomes: list = [None] * len(vecs)
    pending = list(range(len(outcomes)))
    attempt = steps
    for doubling in range(MAX_GRID_DOUBLINGS):
        if doubling:
            attempt *= 2
        # One stack, split only where its windows would fall below MIN_WINDOW.
        narrowest = min(MIN_WINDOW, attempt + 1)
        most = max(1, STACK_BYTES // ((narrowest + 1) * _window_column_bytes(vecs.shape[1])))
        size = -(-len(pending) // -(-len(pending) // most))
        for lo in range(0, len(pending), size):
            part = pending[lo : lo + size]
            found = _track_stack(gens[part], herms[part], vecs[part], grid, total_time, attempt)
            for i, outcome in zip(part, found):
                outcomes[i] = outcome
        pending = [i for i in pending if outcomes[i] is None]
        if not pending:
            break
    for i in pending:
        outcomes[i] = BranchTrackingError(
            f"per-step overlap rotation stayed above pi/2 after refining to {attempt} steps"
        )
    return outcomes


def sweep_no_jump_phases(
    sweep: LoweredSweep,
    states,
    total_time: float,
    steps: int = DEFAULT_SUBSTEPS,
) -> list[Union[GeometricPhaseResult, BranchTrackingError, TotalDecayError]]:
    """`no_jump_geometric_phases` of the points of a lowered sweep, point p
    starting from row p of the (P, d) normalized states."""
    vecs = normalized_states(states, sweep.model.dim, "psi0")
    if len(vecs) != len(sweep):
        raise ValueError(f"{len(vecs)} initial states for {len(sweep)} points")
    return _tracked_phases(sweep.grid, sweep.k_tilde, sweep.k, vecs, total_time, steps)


def no_jump_geometric_phases(
    points,
    total_time: float,
    steps: int = DEFAULT_SUBSTEPS,
) -> list[Union[GeometricPhaseResult, BranchTrackingError, TotalDecayError]]:
    """`no_jump_geometric_phase` of each (model, psi0, shifts) point, shifts
    None for none, on one starting grid.

    A point's entry is its result, or the BranchTrackingError or
    TotalDecayError the one-point call would raise; that point's failure
    leaves the others untouched. Invalid input raises at once. The points
    are lowered by `lindblad.lower_points`, one `lower_sweep` for each
    group that shares a model's schedules and the grid of its shifts, and
    the points of each group are tracked together by `sweep_no_jump_phases`,
    in memory that does not grow with the total time.
    """
    points = list(points)
    vecs = [normalized_state_vector(psi0, model.dim, "psi0") for model, psi0, _ in points]
    lowered = lower_points([(model, shifts) for model, _, shifts in points])
    if total_time < 0:
        # As `operators.step_propagators` does, which no group reaches when
        # there are no points.
        raise ValueError("total_time must be >= 0")
    outcomes: list = [None] * len(points)
    for sweep, members in lowered:
        states = [vecs[i] for i in members]
        for i, outcome in zip(members, sweep_no_jump_phases(sweep, states, total_time, steps)):
            outcomes[i] = outcome
    return outcomes


def _result(outcome) -> GeometricPhaseResult:
    """A one-point outcome of `_tracked_phases`: the result, or its error
    raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def no_jump_geometric_phase(
    model: LindbladModel,
    psi0,
    total_time: float,
    steps: int = DEFAULT_SUBSTEPS,
    shifts: Optional[ShiftSet] = None,
) -> GeometricPhaseResult:
    """Geometric phase of the no-jump branch.

    The path is generated by the model's no-jump generator (shifted when
    shifts are given); the dynamical integral uses the matching Hermitian
    Hamiltonian. The grid is doubled until every step rotates the overlap by
    at most pi/2, except across flagged zero crossings of the overlap, where
    the result is meaningful modulo 2 pi only. The one-point form of
    `no_jump_geometric_phases`.
    """
    (outcome,) = no_jump_geometric_phases([(model, psi0, shifts)], total_time, steps)
    return _result(outcome)


def gauge_transform_check(
    model: LindbladModel,
    psi0,
    total_time: float,
    log_rate: complex = 0j,
    scale: complex = 1.0 + 0j,
    steps: int = DEFAULT_SUBSTEPS,
    shifts: Optional[ShiftSet] = None,
) -> tuple[float, float]:
    """Geometric phase before and after rescaling the path by
    c(t) = scale * exp(log_rate * t).

    The transformed path is generated by K_tilde + i * log_rate * identity
    and the Hamiltonian picks up the compensating term -Im(log_rate) *
    identity, so both phases agree (the imaginary part of log_rate and the
    constant scale drop out of the phase entirely). Both paths are tracked
    in one pass.
    """
    if scale == 0:
        raise ValueError("scale must be nonzero; c(t) may not vanish")
    vec = normalized_state_vector(psi0, model.dim, "psi0")
    ((sweep, _),) = lower_points([(model, shifts)])
    eye = np.eye(model.dim)
    gens = np.concatenate([sweep.k_tilde, sweep.k_tilde + 1j * complex(log_rate) * eye])
    herms = np.concatenate([sweep.k, sweep.k - complex(log_rate).imag * eye])
    vecs = np.array([vec, complex(scale) * vec])
    outcomes = _tracked_phases(sweep.grid, gens, herms, vecs, total_time, steps)
    base, transformed = map(_result, outcomes)
    return base.phase, transformed.phase


def _squared_norms(columns: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of (..., d, N) complex arrays, as (..., N)."""
    parts = np.square(columns.view(float))
    return np.add.reduce(parts[..., 0::2] + parts[..., 1::2], axis=-2)


def _warn_if_crude(strength_dt: float) -> None:
    if strength_dt > 0.1:
        message = "jump times resolve only to delta_t, so first-order errors in it are large"
        warnings.warn(f"strength * delta_t above 0.1; {message}", RuntimeWarning, stacklevel=3)


class _JumpSampler:
    """The waiting-time law of this module for the columns of a (d, N)
    array, at point p of a lowered sweep.

    The cells the steps use, their no-jump maps U and the keyed runs are
    those of `operators.step_propagators`: a run of steps in one cell has
    that cell's key, a row of the one `MapPowers` of the maps U and of the
    cells' channels. In round j of a run, every column left in it finds its
    j-th jump there by greedy binary lifting over the key's powers U^(2^i):
    from the highest a run of its length can take down, a column takes a
    power that stays in the run and keeps ||psi~||^2 at or above r. The
    norm never grows, so this finds the last grid point above r; no map is
    inverted.

    Column i draws its (r, u) pairs from row i of a `_streams.PCG64Rows`,
    PAIR_BLOCK pairs at a time, as `Generator.random` of its stream would
    give them; only exhausted columns are refilled, all in one draw."""

    def __init__(self, sweep: LoweredSweep, p: int, total_time: float, steps: int):
        cells, maps, self.runs = step_propagators(sweep.grid, sweep.k_tilde[p], total_time, steps)
        self.powers = MapPowers(maps, steps)
        self.channels = sweep.channels[p, cells]
        self.lam_dt = float(sweep.strengths[p]) * (total_time / steps)

    def _jump(self, psi, u, key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For columns psi~_k jumping in steps of key: the normalized states
        at k + 1, the channels chosen by u and the total jump probabilities.
        A state all channels annihilate takes the no-jump step (channel -1)."""
        amps = self.channels[key] @ psi
        sq = _squared_norms(amps)
        rate = np.add.reduce(sq, axis=0)
        total = self.lam_dt * rate / _squared_norms(psi)
        chan = np.sum(np.cumsum(sq, axis=0) <= u * rate, axis=0)
        chan[rate <= 0] = -1
        fired = np.flatnonzero(rate > 0)
        out = psi if fired.size == psi.shape[1] else self.powers.square(0)[key] @ psi
        out[:, fired] = amps[chan[fired], :, fired].T
        out /= np.sqrt(_squared_norms(out))
        return out, chan, total

    def run(self, x: np.ndarray, rows, events: Optional[list] = None) -> np.ndarray:
        """Take the normalized columns of x through the grid in place, to
        the unnormalized psi~ at T, drawing from rows, and return their jump
        counts; events, if given, collects (column, step, channel) of every
        jump. A refused jump raises once its run is swept, naming the
        earliest such step of all columns and the largest total there."""
        jumps = np.zeros(x.shape[1], dtype=np.int64)
        pos = np.zeros(x.shape[1], dtype=np.intp)
        pairs = np.empty((x.shape[1], PAIR_BLOCK, 2))
        used = np.full(x.shape[1], PAIR_BLOCK)

        def draw(cols: np.ndarray) -> np.ndarray:
            """The next pair of each column in cols, as the rows r and u."""
            empty = cols[used[cols] == PAIR_BLOCK]
            if empty.size:
                pairs[empty] = rows.doubles(empty, 2 * PAIR_BLOCK).reshape(-1, PAIR_BLOCK, 2)
                used[empty] = 0
            used[cols] += 1
            return pairs[cols, used[cols] - 1].T

        r, u = draw(np.arange(x.shape[1]))
        for a, b, key in self.runs:
            refused, stop = None, b
            while (live := np.flatnonzero(pos < stop)).size:
                xs, ks, rs = x.take(live, axis=1), pos[live], r[live]
                for i in range((b - a).bit_length() - 1, -1, -1):
                    y = self.powers.square(i)[key] @ xs
                    take = (ks + (1 << i) <= b) & (_squared_norms(y) >= rs)
                    np.copyto(xs, y, where=take)
                    ks[take] += 1 << i
                hit = np.flatnonzero(ks < b)
                if hit.size:
                    cols, step = live[hit], ks[hit]
                    xs[:, hit], chan, total = self._jump(xs.take(hit, axis=1), u[cols], key)
                    if np.any(total > 1.0):
                        # The earliest refused step, then its largest total; only
                        # columns not past it can still refuse an earlier step.
                        k = int(step[total > 1.0].min())
                        refused = min(refused or (b, 0.0), (k, -float(total[step == k].max())))
                        stop = refused[0] + 1
                    fired = chan >= 0
                    jumps[cols[fired]] += 1
                    if events is not None:
                        events += zip(*(v[fired].tolist() for v in (cols, step, chan)))
                    ks[hit] += 1
                    r[cols], u[cols] = draw(cols)
                x[:, live] = xs
                pos[live] = ks
            if refused is not None:
                raise StepSizeError(
                    f"total jump probability {-refused[1]:g} exceeds 1 at step {refused[0]}; "
                    "reduce delta_t"
                )
        return jumps

    def chunk(self, vec: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A chunk's normalized (d, N) states at T, all from vec, and its (N,)
        jump counts, trajectory i drawing from the PCG64 seeded by row i of
        the (N, 4) seed words."""
        from ._streams import PCG64Rows

        x = np.repeat(vec[:, np.newaxis], len(words), axis=1)
        jumps = self.run(x, PCG64Rows.seeded(words))
        return x / np.sqrt(_squared_norms(x)), jumps


def sample_jump_trajectory(
    model: LindbladModel,
    psi0,
    total_time: float,
    delta_t: float,
    rng: np.random.Generator,
    shifts: Optional[ShiftSet] = None,
) -> TrajectoryRecord:
    """One trajectory of the jump unraveling by the sampler of
    `average_jump_ensemble`, drawn from rng's PCG64 in blocks of PAIR_BLOCK
    (r, u) pairs: with np.random.default_rng of trajectory i's stream it is
    trajectory i. rng is left advanced by the blocks drawn, as if by
    `rng.random`; a Generator on any other bit generator raises TypeError.
    The normalized grid states between jumps are filled from the sampler's
    own ladder of the no-jump maps, one `MapPowers.fill` of the runs
    between two jumps, so they form no power its run did not.
    """
    from ._streams import PCG64Rows

    steps, dt = sampling_grid(total_time, delta_t)
    _warn_if_crude(model.strength * dt)
    vec = unit_vector(state_vector(psi0, model.dim))
    rows = PCG64Rows.of(rng)
    sampler = _JumpSampler(lower_model(model, shifts), 0, total_time, steps)
    found: list = []
    try:
        sampler.run(vec[:, np.newaxis].copy(), rows, found)
    finally:
        rows.store(rng)
    cols = np.empty((model.dim, steps + 1), dtype=complex)
    cols[:, 0] = vec
    pending = iter(found)
    event, segment = next(pending, None), []
    for a, b, key in sampler.runs:
        while event is not None and event[1] < b:
            _, k, m = event
            sampler.powers.fill(cols, [*segment, (a, k, key)])
            cols[:, k + 1] = sampler.channels[key, m] @ cols[:, k]
            a, event, segment = k + 1, next(pending, None), []
        segment.append((a, b, key))
    sampler.powers.fill(cols, segment)
    cols /= np.sqrt(_squared_norms(cols))
    events = tuple(JumpEvent(time=k * dt, channel=m) for _, k, m in found)
    return TrajectoryRecord(np.arange(steps + 1) * dt, cols.T, events, float(not events))


def average_jump_ensemble(
    model: LindbladModel,
    psi0,
    total_time: float,
    delta_t: float,
    n_trajectories: int,
    seed: int,
    shifts: Optional[ShiftSet] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> JumpEnsembleResult:
    """Monte Carlo estimate of rho(T) from the jump unraveling, by the
    waiting-time law of this module; projector moments are taken at T only.

    Trajectory i draws from a stream spawned deterministically from
    (seed, i), and chunk results are joined in order, so the outcome is
    identical for any TRAJPHASE_THREADS setting. The model is lowered and
    its cells exponentiated once, into one sampler that every chunk job
    carries; `_ensemble` owns the job layout.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    vec = unit_vector(state_vector(psi0, model.dim))
    steps, dt = sampling_grid(total_time, delta_t)
    _warn_if_crude(model.strength * dt)
    words = trajectory_words(seed, n_trajectories)
    sampler = _JumpSampler(lower_model(model, shifts), 0, total_time, steps)
    jobs = chunk_jobs(model, sampler, vec, total_time, delta_t, words, chunk_size)
    x, jump_counts = (np.concatenate(c, axis=-1) for c in zip(*map_ordered(run_chunk, jobs)))
    # The (d, d, n) stack of |psi><psi|, reduced in place.
    estimates, std_error = mean_and_error(x[:, np.newaxis] * x.conj())
    mean_jumps, jumps_error = mean_and_error(jump_counts)
    return JumpEnsembleResult(
        times=np.array([total_time]),
        estimates=estimates[np.newaxis],
        std_error=std_error[np.newaxis],
        mean_jumps=float(mean_jumps),
        mean_jumps_error=float(jumps_error),
        n_trajectories=n_trajectories,
        jump_counts=jump_counts,
    )


def kraus_set(
    model: LindbladModel,
    delta_t: float,
    shifts: Optional[ShiftSet] = None,
    at_time: float = 0.0,
) -> KrausSet:
    """First-order Kraus operators at one monitoring step.

    F_0 = 1 - i * K_tilde(t) * delta_t and F_m = sqrt(strength * delta_t) *
    (L_m(t) - f_m(t)); with strength = 0 only the unitary piece remains.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    sweep = lower_model(model, shifts)
    c = sweep.grid.value_at(at_time)
    first = Operator(np.eye(model.dim) - 1j * delta_t * sweep.k_tilde[0, c])
    if model.strength == 0.0:
        return KrausSet(delta_t, (first,))
    root = math.sqrt(model.strength * delta_t)
    ops = [first] + [Operator(root * l) for l in sweep.channels[0, c]]
    return KrausSet(delta_t, tuple(ops))


def kraus_connection_matrix(
    shifts: ShiftSet,
    strength: float,
    delta_t: float,
    at_time: float = 0.0,
) -> np.ndarray:
    """(M+1) x (M+1) matrix W connecting shifted to unshifted Kraus sets,
    F_mu = sum_nu W[mu, nu] E_nu to first order. Unitary up to O(strength *
    delta_t) in the channel block."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    values = [complex(s.value_at(at_time)) for s in shifts.shifts]
    count = len(values)
    w = np.eye(count + 1, dtype=complex)
    root = math.sqrt(strength * delta_t)
    w[0, 0] = 1.0 - 0.5 * strength * delta_t * sum(abs(f) ** 2 for f in values)
    for m, f in enumerate(values, start=1):
        w[0, m] = root * np.conj(f)
        w[m, 0] = -root * f
    return w


def connection_unitarity_residual(w: np.ndarray) -> float:
    """Max-entry norm of W^dag W - identity."""
    w = np.asarray(w, dtype=complex)
    return float(np.max(np.abs(w.conj().T @ w - np.eye(w.shape[0]))))


def kraus_maps_equal(
    model: LindbladModel,
    shifts: ShiftSet,
    delta_t: float,
    rho: Union[DensityMatrix, np.ndarray],
    at_time: float = 0.0,
) -> float:
    """Max-entry distance between the shifted and unshifted Kraus maps on rho.

    Only defined for hidden shifts; for visible ones the two maps differ at
    first order and the comparison would not measure discretization error.
    """
    if not shift_is_hidden(model, shifts, tol=1e-10):
        raise ValueError(
            "shift is not hidden (some conj(f) * L is not Hermitian): "
            "the two Kraus maps represent different physical evolutions"
        )
    shifted = kraus_set(model, delta_t, shifts, at_time).apply(rho)
    plain = kraus_set(model, delta_t, None, at_time).apply(rho)
    return float(np.max(np.abs(shifted - plain)))
