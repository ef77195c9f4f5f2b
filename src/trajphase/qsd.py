"""Linear diffusive unraveling driven by complex Wiener noise.

One Euler-Maruyama step of the linear equation:

    phi -> phi + [-i H(t) - (strength / 2) sum_m L_m^dag L_m] phi dt
               + sqrt(strength) sum_m L_m phi dw_m,

dw_m = sqrt(dt/2) (xi_1 + i xi_2) with independent standard normals, so
E[dw dw] = 0 and E[dw dw*] = dt. There is no renormalization; the ensemble
mean of |phi><phi| reproduces the master equation, and the averaged phase

    phase = arg E[<phi_0|phi(T)>] + integral of Tr[rho(t) K(t)] dt

uses the exact master-equation rho(t), not the ensemble estimate: the
integral is exact per cell of the schedule (`lindblad.energy_integral`),
with no grid of its own. The branch of the argument comes from the exact
mean path E[phi_k] on the estimator's grid, so each trajectory keeps only
its final overlap. With shifts, channels become L_m - f_m while the
Hamiltonian field is untouched (the regrouped Hermitian K enters only the
dynamical term); both come from `lindblad.lower_model`. Several shift sets
of one model run as one ensemble pass (`averaged_geometric_phases`), in
which trajectory i draws the same noise at every point.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from typing import Optional, Sequence

import numpy as np

from ._ensemble import chunked, grid_steps, map_ordered, sampling_grid, trajectory_seeds
from .lindblad import LindbladModel, ShiftSet, energy_integral, lower_model
from .operators import run_states, state_vector, step_runs, unit_vector, wrap_phase

# Unused here; bench/tracing.py wraps these names on this module.
from .lindblad import apply_shift, evolve_density, shifted_hamiltonian  # noqa: F401

NORM_OVERFLOW = 1e100
# Trajectories per worker batch.
DEFAULT_CHUNK = 2048
# Working memory of one block of steps of one chunk: its noise, its stored
# states and the kernel's scratch. At 2048 trajectories a block is then
# 128 steps, long enough that the fixed cost of one draw call per trajectory
# stays small against the draws themselves.
BLOCK_BYTES = 16 * 2**20


class AllOverflowError(RuntimeError):
    """Every trajectory of an ensemble overflowed; there is nothing to average."""

    def __init__(self, excluded: int) -> None:
        super().__init__("every trajectory overflowed; nothing to average")
        self.excluded = excluded


@dataclasses.dataclass(frozen=True)
class QSDConfig:
    """Discretization of one ensemble run."""

    total_time: float
    delta_t: float
    n_trajectories: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # Validates delta_t > 0 and total_time >= delta_t up front.
        sampling_grid(self.total_time, self.delta_t)


@dataclasses.dataclass(frozen=True, eq=False)
class QSDEnsembleResult:
    """Ensemble-mean overlap and the averaged geometric phase.

    std_error is the combined per-component error of mean_overlap;
    phase_std_error converts it to an angle at the estimated magnitude.
    With n_used 0 (every trajectory overflowed) every estimate is NaN.
    """

    mean_overlap: complex
    std_error: float
    overlap_arg: float
    dynamical_term: float
    phase: float
    n_used: int
    n_excluded: int

    @property
    def phase_std_error(self) -> float:
        scale = abs(self.mean_overlap)
        if scale == 0.0:
            return float("inf")
        return self.std_error / scale


class _QSDKernel:
    """Euler-Maruyama steps of P points (one per lowered model) of a chunk of
    N trajectories, held as one (P d, N) array. Trajectory i of every point
    sees the same noise.

    Each combination of the points' cells has one (P, d (1 + C), d) stack of
    the matrices [I - i dt K_tilde; sqrt(lam) L_1; ...; sqrt(lam) L_C], so a
    step is one batched product plus C noise-weighted additions for all
    points. `run` goes through the grid in blocks of steps. Overflow (a norm
    at or above NORM_OVERFLOW, or not finite, at any step) is screened per
    point once per block over its stored states; overflowed trajectories of
    a point are excluded and restart from zero.
    """

    def __init__(self, lowereds, total_time: float, steps: int, vec: np.ndarray, count: int):
        dt = total_time / steps
        dim = vec.shape[0]
        points = len(lowereds)
        root = np.sqrt(lowereds[0].strength)
        mats = [
            [
                np.concatenate(
                    [np.eye(dim) + dt * (-1j * c.k_tilde), *(root * l for l in c.channels)]
                )
                for c in lowered.values
            ]
            for lowered in lowereds
        ]
        # Each point's cell only grows with the step, so the combination of
        # cells changes exactly where some point's run starts, and never recurs.
        runs = [step_runs(low, 0.0, total_time, steps) for low in lowereds]
        starts = sorted({a for point in runs for a, _, _ in point})
        cells = [low.step_cells(0.0, total_time, steps, starts).tolist() for low in lowereds]
        self.stacks = [np.stack([m[c] for m, c in zip(mats, combo)]) for combo in zip(*cells)]
        self.lengths = np.diff([*starts, steps]).tolist()
        self.steps = steps
        self.channels = len(lowereds[0].values[0].channels)
        self.scale = np.sqrt(dt / 2.0)
        self.shape = (points, dim, count)
        self.product = np.empty((points, dim * (1 + self.channels), count), dtype=complex)
        self.drift = self.product[:, :dim]
        self.noise_terms = [
            self.product[:, dim * (m + 1) : dim * (m + 2)] for m in range(self.channels)
        ]
        self.term = np.empty(self.shape, dtype=complex)
        self.bra = vec.conj()
        self.alive = np.ones((points, count), dtype=bool)
        self.screen = NORM_OVERFLOW / (2 * dim)

    def run(self, rngs: Sequence[np.random.Generator], x0: np.ndarray) -> None:
        """Advance the (P d, N) columns of x0 through the grid in blocks of
        steps, trajectory i drawing from rngs[i]. NumPy generators draw
        sequentially, so a block of draws equals the matching slice of one
        draw over the whole grid; memory stays within BLOCK_BYTES whatever
        the number of steps."""
        dim, count = x0.shape
        width = 2 * self.channels
        # Noise, stored state and scratch term of one trajectory-step.
        per_step = 8 * width + 16 * dim + 16 * self.channels
        block = max(1, min(self.steps, BLOCK_BYTES // max(1, count * per_step)))
        raw = np.empty((count, block, width))
        states = np.empty((block + 1, dim, count), dtype=complex)
        states[0] = x0
        stacks = itertools.chain.from_iterable(map(itertools.repeat, self.stacks, self.lengths))
        for start in range(0, self.steps, block):
            n = min(block, self.steps - start)
            for rng, row in zip(rngs, raw):
                rng.standard_normal(out=row[:n])
            dws = self.draws(raw[:, :n])
            for j, stack in zip(range(n), stacks):
                self.step(stack, states[j], states[j + 1], dws[j])
            self.reduce(states[1 : n + 1])
            # The block's last state, with reduce's edits, starts the next.
            states[0] = states[n]

    def draws(self, raw: np.ndarray) -> np.ndarray:
        """Complex increments sqrt(dt/2) (xi_1 + i xi_2), as (n, C, N), from
        (N, n, 2 C) standard normals."""
        count, n, width = raw.shape
        c = width // 2
        # Each channel's (xi_1, xi_2) side by side, read as one complex number.
        pairs = raw.reshape(count, n, 2, c).swapaxes(2, 3)
        pairs = np.ascontiguousarray(pairs).view(complex)[..., 0]
        dws = np.empty((n, c, count), dtype=complex)
        np.multiply(pairs.transpose(1, 2, 0), self.scale, out=dws)
        return dws

    def step(self, stack: np.ndarray, x: np.ndarray, out: np.ndarray, dws: np.ndarray) -> None:
        """Advance the states x into out over one step of the cells of stack."""
        np.matmul(stack, x.reshape(self.shape), out=self.product)
        out = out.reshape(self.shape)
        if not self.noise_terms:
            out[...] = self.drift
            return
        # Addition commutes exactly, so this equals drift + term_1 dw_1 + ...
        np.multiply(self.noise_terms[0], dws[0], out=out)
        out += self.drift
        for term, dw in zip(self.noise_terms[1:], dws[1:]):
            np.multiply(term, dw, out=self.term)
            out += self.term

    def reduce(self, states: np.ndarray) -> None:
        n = len(states)
        points = states.reshape(n, *self.shape)
        # A norm at or above NORM_OVERFLOW needs a real or imaginary part of
        # at least NORM_OVERFLOW / sqrt(2d). A column whose parts all stay
        # below the smaller screen NORM_OVERFLOW / (2d) has not overflowed;
        # the others (nan included) get the exact per-step norm test.
        parts = points.view(float)
        peak = np.maximum(parts.max(axis=(0, 2)), -parts.min(axis=(0, 2)))
        suspects = ~(peak.reshape(len(self.alive), -1, 2).max(axis=2) < self.screen)
        for p, alive in enumerate(self.alive):
            suspect = np.flatnonzero(suspects[p])
            if suspect.size:
                norms = np.linalg.norm(points[:, p][:, :, suspect], axis=1)
                blown = suspect[alive[suspect] & ~(norms < NORM_OVERFLOW).all(axis=0)]
                alive[blown] = False
                points[-1, p][:, blown] = 0.0
        # (P, N) overlaps at the block's last step; the last block's are at T.
        self.final = self.bra @ points[-1]


def _qsd_chunk(args) -> list[tuple]:
    """One chunk of trajectories at every point of shift_sets, in one pass;
    one (sum of final overlaps, sum re^2, sum im^2, used, excluded) per point."""
    model, shift_sets, vec, total_time, delta_t, streams = args
    steps, _ = grid_steps(total_time, delta_t)
    count = len(streams)
    lowereds = [lower_model(model, shifts) for shifts in shift_sets]
    kernel = _QSDKernel(lowereds, total_time, steps, vec, count)
    x0 = np.repeat(np.tile(vec, len(lowereds))[:, np.newaxis], count, axis=1)
    # Each trajectory's noise comes from its own stream, so the outcome is
    # independent of how trajectories are grouped into chunks. An
    # overflowing trajectory may reach inf or nan before the block ends;
    # the screen in reduce() excludes it.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.run([np.random.default_rng(s) for s in streams], x0)

    sums = []
    for alive, overlaps in zip(kernel.alive, kernel.final):
        final, used = overlaps[alive], int(alive.sum())
        re2, im2 = float(np.sum(final.real**2)), float(np.sum(final.imag**2))
        sums.append((final.sum(), re2, im2, used, count - used))
    return sums


def _mean_path_arg(lowered, vec: np.ndarray, total_time: float, steps: int) -> float:
    """Unwrapped argument of the exact mean overlap <phi_0|E phi_k> on the
    estimator's grid. The noise has mean zero and is independent of phi_k,
    so E[phi_k] follows the drift maps I - i dt K_tilde alone.

    Positive scale factors keep every argument. Each drift map is divided by
    its spectral radius, so within a run of steps in one cell the path
    neither decays nor grows geometrically, however non-normal the map, and
    each run restarts from the previous run's last state as a unit vector."""
    dt = total_time / steps
    bra = vec.conj()
    start = vec
    total = 0.0
    for a, b, c in step_runs(lowered, 0.0, total_time, steps):
        drift = np.eye(len(vec)) + dt * (-1j * lowered.values[c].k_tilde)
        drift /= np.abs(np.linalg.eigvals(drift)).max()
        cols = run_states({c: drift}, np.full(b - a, c), start).T
        path = bra @ cols
        total += float(np.sum(np.angle(path[1:] * path[:-1].conj())))
        start = unit_vector(cols[:, -1])
    return total


def _point_result(
    lowered, vec: np.ndarray, config: QSDConfig, chunks: list[tuple]
) -> QSDEnsembleResult:
    """Reduce one point's chunk sums, in chunk order, and add its dynamical
    term; NaN estimates if every trajectory overflowed."""
    z_sums, re2, im2, used, excluded = (sum(c[i] for c in chunks) for i in range(5))
    if excluded:
        warnings.warn(
            f"excluded {excluded} trajectories whose norm exceeded {NORM_OVERFLOW:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    if used == 0:
        nan = float("nan")
        return QSDEnsembleResult(complex(nan, nan), nan, nan, nan, nan, 0, excluded)

    mean_overlap = complex(z_sums / used)
    if used > 1:
        var_re = max(re2 / used - mean_overlap.real**2, 0.0) * used / (used - 1)
        var_im = max(im2 / used - mean_overlap.imag**2, 0.0) * used / (used - 1)
        std_error = float(np.sqrt((var_re + var_im) / used))
    else:
        std_error = 0.0
    steps, _ = grid_steps(config.total_time, config.delta_t)
    branch = _mean_path_arg(lowered, vec, config.total_time, steps)
    overlap_arg = branch + wrap_phase(float(np.angle(mean_overlap)) - branch)
    dynamical = energy_integral(lowered, vec, config.total_time)
    return QSDEnsembleResult(
        mean_overlap=mean_overlap,
        std_error=std_error,
        overlap_arg=overlap_arg,
        dynamical_term=dynamical,
        phase=overlap_arg + dynamical,
        n_used=used,
        n_excluded=excluded,
    )


def averaged_geometric_phases(
    model: LindbladModel,
    phi0,
    config: QSDConfig,
    shift_sets: Sequence[Optional[ShiftSet]],
    chunk_size: int = DEFAULT_CHUNK,
) -> list[QSDEnsembleResult]:
    """Averaged geometric phase of the diffusive unraveling at each shift
    set, in order, from one ensemble pass.

    Trajectory i draws the same noise at every point, so the points share
    its draws and every step's kernel calls. The overlap argument is arg of
    the sample mean overlap at T, on the branch nearest the unwrapped
    argument of the exact mean overlap along the same grid. The dynamical
    term is the exact integral of Tr[rho(t) K(t)], cell by cell of the
    schedule, along the master-equation solution of the model actually
    simulated (`lindblad.energy_integral`). A point where every trajectory
    overflowed has n_used 0 and NaN estimates, its dynamical term included.
    """
    vec = state_vector(phi0, model.dim)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("phi0 must be normalized within 1e-12")
    shift_sets = list(shift_sets)
    if not shift_sets:
        return []
    seeds = trajectory_seeds(config.seed, config.n_trajectories)
    jobs = [
        (model, shift_sets, vec, config.total_time, config.delta_t, streams)
        for streams in chunked(seeds, chunk_size)
    ]
    results = map_ordered(_qsd_chunk, jobs)
    out = []
    for p, shifts in enumerate(shift_sets):
        chunks = [r[p] for r in results]
        out.append(_point_result(lower_model(model, shifts), vec, config, chunks))
    return out


def averaged_geometric_phase(
    model: LindbladModel,
    phi0,
    config: QSDConfig,
    shifts: Optional[ShiftSet] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> QSDEnsembleResult:
    """`averaged_geometric_phases` at one shift set; raises AllOverflowError
    if every trajectory overflowed."""
    (res,) = averaged_geometric_phases(model, phi0, config, [shifts], chunk_size)
    if res.n_used == 0:
        raise AllOverflowError(res.n_excluded)
    return res


def averaged_overlap(
    model: LindbladModel,
    phi0,
    config: QSDConfig,
    shifts: Optional[ShiftSet] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> tuple[complex, float]:
    """Monte Carlo estimate of E[<phi_0|phi(T)>] with its standard error."""
    res = averaged_geometric_phase(model, phi0, config, shifts, chunk_size=chunk_size)
    return res.mean_overlap, res.std_error
