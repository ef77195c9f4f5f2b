"""Jump unraveling of a Lindblad model.

Between jumps a trajectory follows the non-Hermitian generator

    K_tilde(t) = H(t) - (i * strength / 2) * sum_m L_m^dag L_m,

whose norm loss encodes the no-jump probability. The geometric phase of the
no-jump branch is

    phase = arg<psi(0)|psi(T)> + integral of <psi|K|psi> / <psi|psi> dt,

with K the Hermitian Hamiltonian of the (possibly shifted) model and the
overlap argument tracked continuously along the path. The discrete-time
monitoring picture is exposed through Kraus sets F_0 = 1 - i K_tilde dt,
F_m = sqrt(strength * dt) L_m and the connection matrix relating shifted and
unshifted sets.

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
||(L_m - f_m) psi||^2, psi normalized, exceeds 1 raises StepSizeError.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import NamedTuple, Optional, Union

import numpy as np

from ._ensemble import chunked, grid_steps, map_ordered, sampling_grid, trajectory_seeds
from ._ensemble import mean_and_error
from .lindblad import (
    DensityMatrix,
    LindbladModel,
    ShiftSet,
    lower_model,
    shift_is_hidden,
)
from .operators import (
    DEFAULT_SUBSTEPS,
    Operator,
    OperatorSchedule,
    PureState,
    binary_scaled,
    cell_maps,
    key_runs,
    normalized_state_vector,
    run_states,
    simpson,
    state_vector,
    step_propagators,
    step_runs,
    unit_vector,
)

# Unused here; bench/tracing.py wraps these names on this module.
from .lindblad import apply_shift, shifted_hamiltonian  # noqa: F401
from .operators import combine_schedules, matrix_exponential  # noqa: F401

# Overlap magnitudes below this fraction of the norm product are treated as
# equator crossings where the accumulated argument has no stable branch.
BRANCH_EPS = 1e-10
NORM_FLOOR = 1e-150
MAX_GRID_DOUBLINGS = 7
# (r, u) pairs drawn per generator call; a trajectory takes one per jump, plus one.
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

    @property
    def samples(self) -> list[tuple[float, DensityMatrix]]:
        return [(float(t), DensityMatrix(rho)) for t, rho in zip(self.times, self.estimates)]

    @property
    def final_estimate(self) -> DensityMatrix:
        return DensityMatrix(self.estimates[-1])


def no_jump_hamiltonian(model: LindbladModel) -> OperatorSchedule:
    """K_tilde(t) = H(t) - (i * strength / 2) * sum_m L_m(t)^dag L_m(t)."""
    return lower_model(model).operators(lambda c: c.k_tilde)


def shifted_no_jump_hamiltonian(model: LindbladModel, shifts: ShiftSet) -> OperatorSchedule:
    """No-jump generator of the shifted model,
    H - (i * strength / 2) * sum (L - f)^dag (L - f)."""
    return lower_model(model, shifts).operators(lambda c: c.k_tilde)


def propagate_no_jump(
    generator: OperatorSchedule,
    psi0,
    total_time: float,
    steps: int = DEFAULT_SUBSTEPS,
) -> TrajectoryRecord:
    """Deterministic propagation under the no-jump generator.

    Uses the exponential midpoint rule per substep; a run of substeps in one
    cell is propagated by powers of that cell's exponential
    (`operators.run_states`). survival is the final squared norm relative to
    the initial one, clamped to [0, 1]; TotalDecayError is raised once the
    norm falls below NORM_FLOOR times the initial one. psi0 is propagated
    scaled by a power of two into [1/2, 1), so its norms cannot underflow.
    The record's states are the transpose of C-ordered (d, steps + 1)
    columns, as `run_states` returns them.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    vec = state_vector(psi0, generator.dim)

    dt = total_time / steps
    exponent = int(np.frexp(np.abs(vec).max())[1])
    maps, runs = step_propagators(generator, 0.0, total_time, steps)
    states = run_states(maps, runs, binary_scaled(vec, -exponent))

    sq_norms = _squared_norms(states.T)
    decayed = sq_norms < NORM_FLOOR**2 * sq_norms[0]
    if decayed.any():
        first = int(np.argmax(decayed))
        raise TotalDecayError(
            f"state norm underflowed below {NORM_FLOOR:g} of the initial norm "
            f"at t = {first * dt:g}"
        )
    times = np.arange(steps + 1) * dt
    survival = min(1.0, max(0.0, float(sq_norms[-1] / sq_norms[0])))
    if exponent:
        states = binary_scaled(states, exponent)
    return TrajectoryRecord(times, states, (), survival)


def no_jump_probability(record: TrajectoryRecord) -> float:
    """Probability that the monitored system follows the no-jump branch."""
    if record.jumps:
        raise ValueError("record contains jumps; survival is not a branch probability")
    return record.survival


def _dynamical_integrand(herm: OperatorSchedule, times, cols, sq_norms) -> np.ndarray:
    """<psi|K|psi> / <psi|psi> at each grid time, for the states in the
    columns of cols: Re[(K psi) * conj(psi)] summed over the rows, with one
    product per run of cells."""
    k_cols = np.empty_like(cols)
    for a, b, cell in key_runs(herm.cells_at(times)):
        np.matmul(herm.values[cell].entries, cols[:, a:b], out=k_cols[:, a:b])
    # Re[(K psi)_i conj(psi_i)] = Re(K psi)_i Re(psi_i) + Im(K psi)_i Im(psi_i),
    # formed in place to keep no second (d, n) temporary.
    parts = k_cols.view(float)
    parts *= cols.view(float)
    return np.add.reduce(parts[:, 0::2] + parts[:, 1::2], axis=0) / sq_norms


def _phase_generators(model, shifts) -> tuple[OperatorSchedule, OperatorSchedule]:
    """The no-jump generator K_tilde and the Hermitian K of the dynamical term."""
    lowered = lower_model(model, shifts)
    return lowered.operators(lambda c: c.k_tilde), lowered.operators(lambda c: c.k)


def _tracked_phase(
    gen: OperatorSchedule,
    herm: OperatorSchedule,
    vec: np.ndarray,
    total_time: float,
    steps: int,
) -> GeometricPhaseResult:
    attempt = max(1, steps)
    bra = vec.conj()
    for doubling in range(MAX_GRID_DOUBLINGS):
        if doubling:
            attempt *= 2
        record = propagate_no_jump(gen, vec, total_time, attempt)
        cols = record.states.T
        overlaps = bra @ cols
        sq_norms = _squared_norms(cols)
        norms = np.sqrt(sq_norms)
        rel = np.abs(overlaps) / (norms[0] * norms)
        crossing = rel < BRANCH_EPS
        increments = np.angle(overlaps[1:] * overlaps[:-1].conj())
        near_crossing = crossing[1:] | crossing[:-1]
        worst = np.max(np.abs(increments[~near_crossing]), initial=0.0)
        if worst <= 0.5 * math.pi:
            break
    else:
        raise BranchTrackingError(
            f"per-step overlap rotation stayed above pi/2 after refining to {attempt} steps"
        )

    if crossing[-1] or not np.all(np.isfinite(overlaps)):
        raise BranchTrackingError(
            "overlap with the initial state vanishes at the endpoint; "
            "the geometric phase is undefined there"
        )
    overlap_arg = float(np.sum(increments))
    integrand = _dynamical_integrand(herm, record.times, cols, sq_norms)
    if total_time > 0:
        dynamical = simpson(integrand, total_time / attempt)
    else:
        dynamical = 0.0
    crossing_times = tuple(float(t) for t in record.times[crossing])
    return GeometricPhaseResult(
        phase=overlap_arg + dynamical,
        overlap_arg=overlap_arg,
        dynamical_term=dynamical,
        final_norm=float(norms[-1]),
        grid_steps=attempt,
        branch_crossings=crossing_times,
    )


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
    the result is meaningful modulo 2 pi only.
    """
    vec = normalized_state_vector(psi0, model.dim, "psi0")
    gen, herm = _phase_generators(model, shifts)
    return _tracked_phase(gen, herm, vec, total_time, steps)


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
    constant scale drop out of the phase entirely).
    """
    if scale == 0:
        raise ValueError("scale must be nonzero; c(t) may not vanish")
    vec = normalized_state_vector(psi0, model.dim, "psi0")
    gen, herm = _phase_generators(model, shifts)
    base = _tracked_phase(gen, herm, vec, total_time, steps)
    eye = np.eye(model.dim)
    gen2 = gen.map(lambda op: Operator(op.entries + 1j * complex(log_rate) * eye))
    herm2 = herm.map(lambda op: Operator(op.entries - complex(log_rate).imag * eye))
    vec2 = complex(scale) * vec
    transformed = _tracked_phase(gen2, herm2, vec2, total_time, steps)
    return base.phase, transformed.phase


def _squared_norms(columns: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of (..., d, N) complex arrays, as (..., N)."""
    parts = np.square(columns.view(float))
    return np.add.reduce(parts[..., 0::2] + parts[..., 1::2], axis=-2)


def _warn_if_crude(strength_dt: float) -> None:
    if strength_dt > 0.1:
        message = "jump times resolve only to delta_t, so first-order errors in it are large"
        warnings.warn(f"strength * delta_t above 0.1; {message}", RuntimeWarning, stacklevel=3)


class _Pairs:
    """Each column's (r, u) pairs in order, drawn from its own generator
    PAIR_BLOCK at a time; draws are sequential, so the block is not seen."""

    def __init__(self, generators):
        self.fills = [g.random for g in generators]
        self.block = np.empty((len(generators), PAIR_BLOCK, 2))
        self.used = np.full(len(generators), PAIR_BLOCK)

    def take(self, cols: np.ndarray) -> np.ndarray:
        """The next pair of each column in cols, as the rows r and u."""
        for c in cols[self.used[cols] == self.block.shape[1]].tolist():
            self.fills[c](out=self.block[c])
            self.used[c] = 0
        self.used[cols] += 1
        return self.block[cols, self.used[cols] - 1].T


class _JumpSampler:
    """The waiting-time law of this module for the columns of a (d, N) array.

    Steps whose cell terms are byte-equal share one key, so equal-valued
    cells form one run. In round j of a run, every column left in it finds
    its j-th jump there by greedy binary lifting over the powers U^(2^i) of
    the run's no-jump map: from the highest down, a column takes a power
    that stays in the run and keeps ||psi~||^2 at or above r. The norm never
    grows, so this finds the last grid point above r; no map is inverted."""

    def __init__(self, model, shifts, total_time: float, steps: int):
        lowered = lower_model(model, shifts)
        gen = lowered.operators(lambda c: c.k_tilde)
        cell_runs = step_runs(gen, 0.0, total_time, steps)
        # The key of a cell is the first cell whose terms equal its own.
        first: dict[bytes, int] = {}
        keys = []
        for _, _, c in cell_runs:
            terms = lowered.values[c]
            data = b"".join(m.tobytes() for m in (terms.k_tilde, *terms.channels))
            keys.append(first.setdefault(data, c))
        self.runs = [(cell_runs[i][0], cell_runs[j - 1][1], k) for i, j, k in key_runs(keys)]
        self.maps = cell_maps(gen, first.values(), total_time / steps)
        # The channels of a key as one (C, d, d) array.
        shape = (-1, model.dim, model.dim)
        self.stacks = {c: np.reshape(lowered.values[c].channels, shape) for c in first.values()}
        self.lam_dt = model.strength * (total_time / steps)
        self.powers: dict[int, list[np.ndarray]] = {}
        for a, b, key in self.runs:
            table = self.powers.setdefault(key, [self.maps[key]])
            while 2 ** len(table) <= b - a:
                table.append(table[-1] @ table[-1])

    def _jump(self, psi, u, key) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For columns psi~_k jumping in steps of key: the normalized states
        at k + 1, the channels chosen by u and the total jump probabilities.
        A state all channels annihilate takes the no-jump step (channel -1)."""
        amps = self.stacks[key] @ psi
        sq = _squared_norms(amps)
        rate = np.add.reduce(sq, axis=0)
        total = self.lam_dt * rate / _squared_norms(psi)
        chan = np.sum(np.cumsum(sq, axis=0) <= u * rate, axis=0)
        chan[rate <= 0] = -1
        fired = np.flatnonzero(rate > 0)
        out = psi if fired.size == psi.shape[1] else self.maps[key] @ psi
        out[:, fired] = amps[chan[fired], :, fired].T
        out /= np.sqrt(_squared_norms(out))
        return out, chan, total

    def run(self, x: np.ndarray, pairs: _Pairs, events: Optional[list] = None) -> np.ndarray:
        """Take the normalized columns of x through the grid in place, to
        the unnormalized psi~ at T, and return their jump counts; events, if
        given, collects (column, step, channel) of every jump. A refused jump
        raises once its run is swept, naming the earliest such step of all
        columns and the largest total there."""
        jumps = np.zeros(x.shape[1], dtype=np.int64)
        pos = np.zeros(x.shape[1], dtype=np.intp)
        r, u = pairs.take(np.arange(x.shape[1]))
        for _, b, key in self.runs:
            powers, refused, stop = self.powers[key], None, b
            while (live := np.flatnonzero(pos < stop)).size:
                xs, ks, rs = x.take(live, axis=1), pos[live], r[live]
                for i in range(len(powers) - 1, -1, -1):
                    y = powers[i] @ xs
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
                    r[cols], u[cols] = pairs.take(cols)
                x[:, live] = xs
                pos[live] = ks
            if refused is not None:
                raise StepSizeError(
                    f"total jump probability {-refused[1]:g} exceeds 1 at step {refused[0]}; "
                    "reduce delta_t"
                )
        return jumps


def sample_jump_trajectory(
    model: LindbladModel,
    psi0,
    total_time: float,
    delta_t: float,
    rng: np.random.Generator,
    shifts: Optional[ShiftSet] = None,
) -> TrajectoryRecord:
    """One trajectory of the jump unraveling, drawn from rng in blocks of
    PAIR_BLOCK (r, u) pairs by the sampler of `average_jump_ensemble`: with
    np.random.default_rng of trajectory i's stream it is trajectory i.
    The normalized grid states between jumps come from `run_states`.
    """
    steps, dt = sampling_grid(total_time, delta_t)
    _warn_if_crude(model.strength * dt)
    vec = unit_vector(state_vector(psi0, model.dim))
    sampler = _JumpSampler(model, shifts, total_time, steps)
    found: list = []
    sampler.run(vec[:, np.newaxis].copy(), _Pairs([rng]), found)
    keys = np.concatenate([np.full(b - a, key) for a, b, key in sampler.runs])
    cols = np.empty((model.dim, steps + 1), dtype=complex)
    start, x = 0, vec
    for _, k, m in found:
        cols[:, start : k + 1] = run_states(sampler.maps, key_runs(keys[start:k]), x).T
        x = sampler.stacks[keys[k]][m] @ cols[:, k]
        start = k + 1
    cols[:, start:] = run_states(sampler.maps, key_runs(keys[start:]), x).T
    cols /= np.sqrt(_squared_norms(cols))
    events = tuple(JumpEvent(time=k * dt, channel=m) for _, k, m in found)
    return TrajectoryRecord(np.arange(steps + 1) * dt, cols.T, events, float(not events))


def _ensemble_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's normalized (d, N) states at T and its (N,) jump counts."""
    model, shifts, vec, total_time, delta_t, streams = args
    steps, _ = grid_steps(total_time, delta_t)
    x = np.repeat(vec[:, np.newaxis], len(streams), axis=1)
    sampler = _JumpSampler(model, shifts, total_time, steps)
    jumps = sampler.run(x, _Pairs([np.random.default_rng(s) for s in streams]))
    return x / np.sqrt(_squared_norms(x)), jumps


def average_jump_ensemble(
    model: LindbladModel,
    psi0,
    total_time: float,
    delta_t: float,
    n_trajectories: int,
    seed: int,
    shifts: Optional[ShiftSet] = None,
    chunk_size: int = 2048,
) -> JumpEnsembleResult:
    """Monte Carlo estimate of rho(T) from the jump unraveling, by the
    waiting-time law of this module; projector moments are taken at T only.

    Trajectory i draws from a stream spawned deterministically from
    (seed, i), and chunk results are joined in order, so the outcome is
    identical for any TRAJPHASE_THREADS setting.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    vec = unit_vector(state_vector(psi0, model.dim))
    _, dt = sampling_grid(total_time, delta_t)
    _warn_if_crude(model.strength * dt)
    seeds = trajectory_seeds(seed, n_trajectories)
    jobs = [
        (model, shifts, vec, total_time, delta_t, streams)
        for streams in chunked(seeds, chunk_size)
    ]
    x, jump_counts = (np.concatenate(c, axis=-1) for c in zip(*map_ordered(_ensemble_chunk, jobs)))
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
    terms = lower_model(model, shifts).value_at(at_time)
    first = Operator(np.eye(model.dim) - 1j * delta_t * terms.k_tilde)
    if model.strength == 0.0:
        return KrausSet(delta_t, (first,))
    root = math.sqrt(model.strength * delta_t)
    ops = [first] + [Operator(root * l) for l in terms.channels]
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
