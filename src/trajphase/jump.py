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
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import NamedTuple, Optional, Union

import numpy as np

from ._ensemble import (
    NoiseSource,
    grid_steps,
    map_ordered,
    sampling_grid,
    stream_ensemble,
    trajectory_seeds,
)
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
    key_runs,
    run_states,
    simpson,
    step_propagators,
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
        out = np.zeros_like(arr)
        for op in self.ops:
            out = out + op.entries @ arr @ op.entries.conj().T
        return out

    def completeness_residual(self) -> float:
        """Max-entry norm of sum_mu F_mu^dag F_mu - identity (O(delta_t^2))."""
        dim = self.ops[0].dim
        total = np.zeros((dim, dim), dtype=complex)
        for op in self.ops:
            total = total + op.entries.conj().T @ op.entries
        return float(np.max(np.abs(total - np.eye(dim))))


@dataclasses.dataclass(frozen=True, eq=False)
class JumpEnsembleResult:
    """Ensemble-averaged projector estimates on the sampling grid."""

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
        return [
            (float(t), DensityMatrix(rho))
            for t, rho in zip(self.times, self.estimates)
        ]

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


def _state_vector(psi) -> np.ndarray:
    vec = np.asarray(getattr(psi, "amplitudes", psi), dtype=complex).reshape(-1)
    # A norm would underflow to 0 for tiny nonzero amplitudes.
    if not vec.any():
        raise ValueError("state vector must be nonzero")
    return vec


def _unit_vector(psi) -> np.ndarray:
    vec = _state_vector(psi)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("psi0 must be normalized within 1e-12")
    return vec


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
    vec = _state_vector(psi0)
    if vec.shape[0] != generator.dim:
        raise ValueError("state dimension differs from the generator's")

    dt = total_time / steps
    exponent = int(np.frexp(np.abs(vec).max())[1])
    maps, cells = step_propagators(generator, 0.0, total_time, steps)
    states = run_states(maps, cells, binary_scaled(vec, -exponent))

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
    vec = _unit_vector(psi0)
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
    vec = _unit_vector(psi0)
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


class _JumpStep:
    """One step of the first-order jump unraveling for the normalized states
    in the columns of a (d, N) array.

    One product with the cell's stacked matrix [U; L_1 - f_1; ...; L_C - f_C]
    of shape (d (1 + C), d), U the no-jump propagator, gives every column's
    no-jump successor and channel amplitudes. Channel m fires with
    probability strength * dt * ||(L_m - f_m) psi||^2; the new state is the
    fired channel's amplitude or the no-jump successor, renormalized.
    """

    def __init__(self, model, shifts, total_time: float, steps: int, count: int):
        lowered = lower_model(model, shifts)
        gen = lowered.operators(lambda c: c.k_tilde)
        maps, cells = step_propagators(gen, 0.0, total_time, steps)
        self.cells = cells.tolist()
        self.stacks = {
            c: np.concatenate([u, *lowered.values[c].channels]) for c, u in maps.items()
        }
        self.lam_dt = model.strength * (total_time / steps)
        self.product = np.empty(((1 + len(model.lindblads)) * model.dim, count), dtype=complex)
        self.blocks = self.product.reshape(-1, model.dim, count)

    def __call__(self, k: int, x, out, u_jump, u_chan) -> tuple[np.ndarray, np.ndarray]:
        """Advance x over step k into out, deciding with the uniforms u_jump
        and u_chan (one per column). Returns the columns that jumped and
        their channels."""
        np.matmul(self.stacks[self.cells[k]], x, out=self.product)
        # Row 0: squared norm of the no-jump successor; row 1 + m: of channel m.
        sq_norms = _squared_norms(self.blocks)
        probs = sq_norms[1:] * self.lam_dt
        totals = np.add.reduce(probs, axis=0)
        cols = (u_jump < totals).nonzero()[0]
        channel = cols
        next_sq = sq_norms[0]
        out[...] = self.blocks[0]
        if cols.size:
            # u < 1, so a column whose total exceeds 1 always counts as jumped.
            worst = float(np.maximum.reduce(totals[cols]))
            if worst > 1.0:
                raise StepSizeError(
                    f"total jump probability {worst:g} exceeds 1 at step {k}; reduce delta_t"
                )
            cum = np.cumsum(probs[:, cols], axis=0)
            channel = np.sum(cum <= u_chan[cols] * totals[cols], axis=0)
            out[:, cols] = self.blocks[1 + channel, :, cols].T
            next_sq = next_sq.copy()
            next_sq[cols] = sq_norms[1 + channel, cols]
        # Scale real and imaginary parts alike by the inverse column norms.
        out.view(float)[...] *= np.repeat(1.0 / np.sqrt(next_sq), 2)
        return cols, channel


def sample_jump_trajectory(
    model: LindbladModel,
    psi0,
    total_time: float,
    delta_t: float,
    rng: np.random.Generator,
    shifts: Optional[ShiftSet] = None,
) -> TrajectoryRecord:
    """One stochastic trajectory of the first-order jump unraveling.

    Per step, channel m fires with probability strength * dt *
    ||(L_m - f_m) psi||^2; otherwise the state follows the no-jump generator.
    States are renormalized after every step. Draws two uniform blocks of
    length steps from rng (jump decisions, then channel choices), so equal
    rng states reproduce the trajectory exactly.
    """
    steps, dt = sampling_grid(total_time, delta_t)
    if model.strength * dt > 0.1:
        warnings.warn(
            "strength * delta_t above 0.1; first-order jump probabilities are crude",
            RuntimeWarning,
            stacklevel=2,
        )
    advance = _JumpStep(model, shifts, total_time, steps, 1)
    vec = unit_vector(_state_vector(psi0))

    u_jump = rng.random(steps)
    u_chan = rng.random(steps)
    states = np.empty((steps + 1, vec.shape[0], 1), dtype=complex)
    states[0, :, 0] = vec
    events = []
    for k in range(steps):
        cols, channel = advance(
            k, states[k], states[k + 1], u_jump[k : k + 1], u_chan[k : k + 1]
        )
        if cols.size:
            events.append(JumpEvent(time=k * dt, channel=int(channel[0])))
    times = np.arange(steps + 1) * dt
    survival = 1.0 if not events else 0.0
    return TrajectoryRecord(times, states[:, :, 0], tuple(events), survival)


class _JumpEnsemble:
    """Jump counts and projector moments of a chunk, for `stream_ensemble`:
    sum_proj[k] = sum_n |psi_n(k)><psi_n(k)| and the sums of the squared
    real and imaginary parts of its entries, reduced once per block."""

    def __init__(self, advance: _JumpStep, steps: int, dim: int, count: int):
        self.advance = advance
        self.jumps = np.zeros(count, dtype=np.int64)
        self.sum_proj = np.zeros((steps + 1, dim, dim), dtype=complex)
        self.sum_re2 = np.zeros((steps + 1, dim, dim))
        self.sum_im2 = np.zeros((steps + 1, dim, dim))

    def draws(self, noise: list[np.ndarray]) -> np.ndarray:
        """Jump and channel uniforms of each step, as (n, 2, N)."""
        u_jump, u_chan = noise
        return np.stack([u_jump[:, :, 0].T, u_chan[:, :, 0].T], axis=1)

    def step(self, k: int, x, out, uniforms) -> None:
        cols, _ = self.advance(k, x, out, uniforms[0], uniforms[1])
        if cols.size:
            self.jumps[cols] += 1

    def reduce(self, first: int, states: np.ndarray) -> None:
        proj = states[:, :, np.newaxis, :] * states.conj()[:, np.newaxis, :, :]
        last = first + len(states)
        self.sum_proj[first:last] = np.add.reduce(proj, axis=-1)
        self.sum_re2[first:last] = np.einsum("bijn,bijn->bij", proj.real, proj.real)
        self.sum_im2[first:last] = np.einsum("bijn,bijn->bij", proj.imag, proj.imag)


def _ensemble_chunk(args) -> tuple:
    model, shifts, vec, total_time, delta_t, streams = args
    steps, _ = grid_steps(total_time, delta_t)
    count = len(streams)
    dim = vec.shape[0]
    kernel = _JumpEnsemble(_JumpStep(model, shifts, total_time, steps, count), steps, dim, count)
    # Trajectory i draws `steps` jump uniforms and then `steps` channel
    # uniforms from its stream; the channel cursor is a copy of the stream
    # advanced past the jump uniforms, so both are read one block at a time.
    sources = [
        NoiseSource([np.random.default_rng(s) for s in streams], 1, "random"),
        NoiseSource(
            [np.random.Generator(np.random.PCG64(s).advance(steps)) for s in streams],
            1,
            "random",
        ),
    ]
    x0 = np.repeat(vec[:, np.newaxis], count, axis=1)
    kernel.reduce(0, x0[np.newaxis])
    # Block scratch per trajectory-step: the stacked uniforms, the
    # conjugate states and the projectors of the moment reduction.
    scratch = 16 + 16 * dim + 16 * dim * dim
    stream_ensemble(x0, steps, sources, kernel, scratch_bytes=scratch)
    return kernel.sum_proj, kernel.sum_re2, kernel.sum_im2, kernel.jumps


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
    """Monte Carlo estimate of rho(t) from the jump unraveling.

    Trajectory i draws from a stream spawned deterministically from
    (seed, i); results are reduced in fixed chunk order, so the outcome is
    identical for any TRAJPHASE_THREADS setting.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    vec = unit_vector(_state_vector(psi0))
    steps, dt = sampling_grid(total_time, delta_t)
    if model.strength * dt > 0.1:
        warnings.warn(
            "strength * delta_t above 0.1; first-order jump probabilities are crude",
            RuntimeWarning,
            stacklevel=2,
        )
    seeds = trajectory_seeds(seed, n_trajectories)
    jobs = [
        (model, shifts, vec, total_time, delta_t, seeds[lo : lo + chunk_size])
        for lo in range(0, n_trajectories, chunk_size)
    ]
    results = map_ordered(_ensemble_chunk, jobs)
    # Chunk sums in chunk order.
    sum_proj, sum_re2, sum_im2 = (sum(r[i] for r in results) for i in range(3))
    jump_counts = np.concatenate([r[3] for r in results])

    n = float(n_trajectories)
    estimates = sum_proj / n
    var_re = np.maximum(sum_re2 / n - estimates.real**2, 0.0)
    var_im = np.maximum(sum_im2 / n - estimates.imag**2, 0.0)
    if n_trajectories > 1:
        bessel = n / (n - 1.0)
        std_error = np.sqrt((var_re + var_im) * bessel / n)
        jump_se = math.sqrt(float(np.var(jump_counts, ddof=1)) / n)
    else:
        std_error = np.zeros_like(var_re)
        jump_se = 0.0
    times = np.arange(steps + 1) * dt
    return JumpEnsembleResult(
        times=times,
        estimates=estimates,
        std_error=std_error,
        mean_jumps=float(jump_counts.mean()),
        mean_jumps_error=jump_se,
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
