"""Linear diffusive unraveling driven by complex Wiener noise.

One Euler-Maruyama step of the linear equation:

    phi -> phi + [-i H(t) - (strength / 2) sum_m L_m^dag L_m] phi dt
               + sqrt(strength) sum_m L_m phi dw_m,

dw_m = sqrt(dt/2) (xi_1 + i xi_2) with independent standard normals, so
E[dw dw] = 0 and E[dw dw*] = dt. There is no renormalization; the ensemble
mean of |phi><phi| reproduces the master equation, and the averaged phase

    phase = arg E[<phi_0|phi(T)>] + integral of Tr[rho(t) K(t)] dt

uses the exact master-equation rho(t), not the ensemble estimate. With
shifts, channels become L_m - f_m while the Hamiltonian field is untouched
(the regrouped Hermitian K enters only the dynamical term); both come from
`lindblad.lower_model`. Several shift sets of one model run as one ensemble
pass (`averaged_geometric_phases`), in which trajectory i draws the same
noise at every point.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import simpson

from ._ensemble import (
    NoiseSource,
    grid_steps,
    map_ordered,
    sampling_grid,
    stream_ensemble,
    trajectory_seeds,
)
from .lindblad import DensityMatrix, LindbladModel, ShiftSet, evolve_states, lower_model
from .operators import PureState, key_runs

# Unused here; bench/tracing.py wraps these names on this module.
from .lindblad import apply_shift, evolve_density, shifted_hamiltonian  # noqa: F401

NORM_OVERFLOW = 1e100
CHECKPOINT_INTERVALS = 64
# Trajectories per worker batch.
DEFAULT_CHUNK = 2048


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


def wiener_increments(channels: int, delta_t: float, rng: np.random.Generator) -> np.ndarray:
    """One complex increment per channel: sqrt(dt/2) * (xi_1 + i xi_2)."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    raw = rng.standard_normal((channels, 2))
    return np.sqrt(delta_t / 2.0) * (raw[:, 0] + 1j * raw[:, 1])


def qsd_step(
    model: LindbladModel,
    phi,
    t: float,
    delta_t: float,
    dw: np.ndarray,
    shifts: Optional[ShiftSet] = None,
) -> PureState:
    """One linear Euler-Maruyama step; phi is not renormalized."""
    vec = np.asarray(getattr(phi, "amplitudes", phi), dtype=complex).reshape(-1)
    dw = np.asarray(dw, dtype=complex).reshape(-1)
    if len(dw) != len(model.lindblads):
        raise ValueError("one Wiener increment per channel required")
    terms = lower_model(model, shifts).value_at(t)
    out = vec + delta_t * (-1j * terms.k_tilde @ vec)
    root = np.sqrt(model.strength)
    for l, inc in zip(terms.channels, dw):
        out = out + root * inc * (l @ vec)
    return PureState(out)


def _checkpoint_indices(steps: int, intervals: int) -> np.ndarray:
    count = min(intervals, steps)
    idx = np.unique(np.round(np.linspace(0, steps, count + 1)).astype(int))
    return idx


def _checkpoint_intervals(lowered, total_time: float) -> int:
    """Checkpoint intervals of one point: at least CHECKPOINT_INTERVALS, and
    enough that the drift exp(-i K_tilde t) turns the mean overlap by at most
    pi/4 per interval, so unwrapping its argument cannot skip a branch."""
    rate = max(np.linalg.norm(c.k_tilde, 2) for c in lowered.values)
    return max(CHECKPOINT_INTERVALS, math.ceil(4 * total_time * rate / math.pi))


class _QSDKernel:
    """Euler-Maruyama steps of P points (one per lowered model) of a block of
    N trajectories, held as one (P d, N) array. Trajectory i of every point
    sees the same noise.

    Each combination of the points' cells has one (P, d (1 + C), d) stack of
    the matrices [I - i dt K_tilde; sqrt(lam) L_1; ...; sqrt(lam) L_C], so a
    step is one batched product plus C noise-weighted additions for all
    points. Overflow (a norm at or above NORM_OVERFLOW, or not finite, at any
    step) is screened per point once per block over its stored states;
    overflowed trajectories of a point are excluded and restart from zero.
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
        cells = np.stack([low.step_cells(0.0, total_time, steps) for low in lowereds], axis=1)
        combos, keys = np.unique(cells, axis=0, return_inverse=True)
        self.stacks = [np.stack([m[c] for m, c in zip(mats, combo)]) for combo in combos]
        self.keys = keys.reshape(-1).tolist()
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
        self.checkpoints = [
            _checkpoint_indices(steps, _checkpoint_intervals(low, total_time))
            for low in lowereds
        ]
        self.overlaps = [np.empty((len(cps), count), dtype=complex) for cps in self.checkpoints]
        for overlaps in self.overlaps:
            overlaps[0] = self.bra @ vec
        self.alive = np.ones((points, count), dtype=bool)
        self.screen = NORM_OVERFLOW / (2 * dim)

    def draws(self, noise: list[np.ndarray]) -> np.ndarray:
        """Complex increments sqrt(dt/2) (xi_1 + i xi_2), as (n, C, N)."""
        (raw,) = noise
        count, n, width = raw.shape
        c = width // 2
        # Each channel's (xi_1, xi_2) side by side, read as one complex number.
        pairs = raw.reshape(count, n, 2, c).swapaxes(2, 3)
        pairs = np.ascontiguousarray(pairs).view(complex)[..., 0]
        dws = np.empty((n, c, count), dtype=complex)
        np.multiply(pairs.transpose(1, 2, 0), self.scale, out=dws)
        return dws

    def step(self, k: int, x: np.ndarray, out: np.ndarray, dws: np.ndarray) -> None:
        np.matmul(self.stacks[self.keys[k]], x.reshape(self.shape), out=self.product)
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

    def reduce(self, first: int, states: np.ndarray) -> None:
        n = len(states)
        points = states.reshape(n, *self.shape)
        # A norm at or above NORM_OVERFLOW needs a real or imaginary part of
        # at least NORM_OVERFLOW / sqrt(2d). A column whose parts all stay
        # below the smaller screen NORM_OVERFLOW / (2d) has not overflowed;
        # the others (nan included) get the exact per-step norm test.
        parts = points.view(float)
        peak = np.maximum(parts.max(axis=(0, 2)), -parts.min(axis=(0, 2)))
        suspects = ~(peak.reshape(len(self.alive), -1, 2).max(axis=2) < self.screen)
        for p, (alive, cps, overlaps) in enumerate(
            zip(self.alive, self.checkpoints, self.overlaps)
        ):
            suspect = np.flatnonzero(suspects[p])
            if suspect.size:
                norms = np.linalg.norm(points[:, p][:, :, suspect], axis=1)
                blown = suspect[alive[suspect] & ~(norms < NORM_OVERFLOW).all(axis=0)]
                alive[blown] = False
                points[-1, p][:, blown] = 0.0
            lo, hi = np.searchsorted(cps, [first, first + n])
            overlaps[lo:hi] = self.bra @ points[cps[lo:hi] - first, p]


def _qsd_chunk(args) -> list[tuple]:
    """One chunk of trajectories at every point of shift_sets, in one pass;
    one (overlap sums, sum re^2, sum im^2, used, excluded) per point."""
    model, shift_sets, vec, total_time, delta_t, streams = args
    steps, _ = grid_steps(total_time, delta_t)
    count = len(streams)
    lowereds = [lower_model(model, shifts) for shifts in shift_sets]
    kernel = _QSDKernel(lowereds, total_time, steps, vec, count)
    # Each trajectory's noise comes from its own stream, so the outcome is
    # independent of how trajectories are grouped into chunks.
    rngs = [np.random.default_rng(s) for s in streams]
    source = NoiseSource(rngs, 2 * kernel.channels, "standard_normal")
    x0 = np.repeat(np.tile(vec, len(lowereds))[:, np.newaxis], count, axis=1)
    # An overflowing trajectory may reach inf or nan before the block ends;
    # the screen in reduce() excludes it.
    with np.errstate(over="ignore", invalid="ignore"):
        stream_ensemble(x0, steps, [source], kernel, scratch_bytes=16 * kernel.channels)

    sums = []
    for alive, overlaps in zip(kernel.alive, kernel.overlaps):
        z_alive = overlaps[:, alive]
        final = z_alive[-1]
        sums.append(
            (
                z_alive.sum(axis=1),
                float(np.sum(final.real**2)),
                float(np.sum(final.imag**2)),
                int(alive.sum()),
                int(count - alive.sum()),
            )
        )
    return sums


def _energy_trace(lowered, times: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Tr[rho(t) K(t)] at each grid time, one einsum per run of cells."""
    values = np.empty(len(times))
    for a, b, cell in key_runs(lowered.cells_at(times)):
        values[a:b] = np.einsum("nij,ji->n", rhos[a:b], lowered.values[cell].k).real
    return values


def _point_result(
    lowered, rho0: DensityMatrix, config: QSDConfig, density_steps: int, chunks: list[tuple]
) -> QSDEnsembleResult:
    """Reduce one point's chunk sums, in chunk order, and add its dynamical
    term; NaN estimates if every trajectory overflowed."""
    z_sums = sum(c[0] for c in chunks)
    re2 = sum(c[1] for c in chunks)
    im2 = sum(c[2] for c in chunks)
    used = sum(c[3] for c in chunks)
    excluded = sum(c[4] for c in chunks)
    if excluded:
        warnings.warn(
            f"excluded {excluded} trajectories whose norm exceeded {NORM_OVERFLOW:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    if used == 0:
        nan = float("nan")
        return QSDEnsembleResult(complex(nan, nan), nan, nan, nan, nan, 0, excluded)

    means = z_sums / used
    mean_overlap = complex(means[-1])
    if used > 1:
        var_re = max(re2 / used - mean_overlap.real**2, 0.0) * used / (used - 1)
        var_im = max(im2 / used - mean_overlap.imag**2, 0.0) * used / (used - 1)
        std_error = float(np.sqrt((var_re + var_im) / used))
    else:
        std_error = 0.0
    overlap_arg = float(np.sum(np.angle(means[1:] * np.conj(means[:-1]))))
    times, rhos = evolve_states(lowered, rho0, config.total_time, density_steps)
    values = _energy_trace(lowered, times, rhos)
    dynamical = float(simpson(values, dx=config.total_time / density_steps))
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
    density_steps: int = 2048,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[QSDEnsembleResult]:
    """Averaged geometric phase of the diffusive unraveling at each shift
    set, in order, from one ensemble pass.

    Trajectory i draws the same noise at every point, so the points share
    its draws and every step's kernel calls. The overlap argument is
    unwrapped through per-point checkpoint means: at least 64 intervals,
    and enough that the drift turns the overlap by at most pi/4 per
    interval. The dynamical term integrates Tr[rho(t) K(t)] along the
    deterministic master-equation solution of the model actually simulated.
    A point where every trajectory overflowed has n_used 0 and NaN
    estimates, its dynamical term included.
    """
    vec = np.asarray(getattr(phi0, "amplitudes", phi0), dtype=complex).reshape(-1)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("phi0 must be normalized within 1e-12")
    shift_sets = list(shift_sets)
    if not shift_sets:
        return []
    seeds = trajectory_seeds(config.seed, config.n_trajectories)
    jobs = [
        (model, shift_sets, vec, config.total_time, config.delta_t, seeds[lo : lo + chunk_size])
        for lo in range(0, config.n_trajectories, chunk_size)
    ]
    results = map_ordered(_qsd_chunk, jobs)
    rho0 = DensityMatrix.from_pure(vec)
    out = []
    for p, shifts in enumerate(shift_sets):
        chunks = [r[p] for r in results]
        out.append(_point_result(lower_model(model, shifts), rho0, config, density_steps, chunks))
    return out


def averaged_geometric_phase(
    model: LindbladModel,
    phi0,
    config: QSDConfig,
    shifts: Optional[ShiftSet] = None,
    density_steps: int = 2048,
    chunk_size: int = DEFAULT_CHUNK,
) -> QSDEnsembleResult:
    """`averaged_geometric_phases` at one shift set; raises AllOverflowError
    if every trajectory overflowed."""
    (res,) = averaged_geometric_phases(
        model, phi0, config, [shifts], density_steps, chunk_size
    )
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
