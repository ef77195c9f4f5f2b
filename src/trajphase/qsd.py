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
`lindblad.lower_model`.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Optional

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


def _checkpoint_indices(steps: int) -> np.ndarray:
    count = min(CHECKPOINT_INTERVALS, steps)
    idx = np.unique(np.round(np.linspace(0, steps, count + 1)).astype(int))
    return idx


class _QSDKernel:
    """Euler-Maruyama steps of a (d, N) block of trajectories.

    Each cell has one stacked matrix [I - i dt K_tilde; sqrt(lam) L_1; ...;
    sqrt(lam) L_C] of shape (d (1 + C), d), so a step is one product plus C
    noise-weighted additions. Overflow (a norm at or above NORM_OVERFLOW, or
    not finite, at any step) is screened once per block over its stored
    states; overflowed trajectories are excluded and restart from zero.
    """

    def __init__(self, lowered, total_time: float, steps: int, vec: np.ndarray, count: int):
        dt = total_time / steps
        dim = vec.shape[0]
        root = np.sqrt(lowered.strength)
        self.stacks = [
            np.concatenate(
                [np.eye(dim) + dt * (-1j * c.k_tilde), *(root * l for l in c.channels)]
            )
            for c in lowered.values
        ]
        self.cells = lowered.step_cells(0.0, total_time, steps).tolist()
        self.channels = len(lowered.values[0].channels)
        self.scale = np.sqrt(dt / 2.0)
        self.product = np.empty((dim * (1 + self.channels), count), dtype=complex)
        self.drift = self.product[:dim]
        self.noise_terms = [
            self.product[dim * (m + 1) : dim * (m + 2)] for m in range(self.channels)
        ]
        self.term = np.empty((dim, count), dtype=complex)
        self.bra = vec.conj()
        self.checkpoints = _checkpoint_indices(steps)
        self.overlaps = np.empty((len(self.checkpoints), count), dtype=complex)
        self.overlaps[0] = self.bra @ vec
        self.alive = np.ones(count, dtype=bool)
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
        np.matmul(self.stacks[self.cells[k]], x, out=self.product)
        out[...] = self.drift
        for term, dw in zip(self.noise_terms, dws):
            np.multiply(term, dw, out=self.term)
            out += self.term

    def reduce(self, first: int, states: np.ndarray) -> None:
        # A norm at or above NORM_OVERFLOW needs a real or imaginary part of
        # at least NORM_OVERFLOW / sqrt(2d). A column whose parts all stay
        # below the smaller screen NORM_OVERFLOW / (2d) has not overflowed;
        # the others (nan included) get the exact per-step norm test.
        parts = states.view(float)
        peak = np.maximum(parts.max(axis=(0, 1)), -parts.min(axis=(0, 1)))
        suspect = np.flatnonzero(~(peak.reshape(-1, 2).max(axis=1) < self.screen))
        if suspect.size:
            norms = np.linalg.norm(states[:, :, suspect], axis=1)
            blown = suspect[self.alive[suspect] & ~(norms < NORM_OVERFLOW).all(axis=0)]
            self.alive[blown] = False
            states[-1][:, blown] = 0.0
        lo, hi = np.searchsorted(self.checkpoints, [first, first + len(states)])
        self.overlaps[lo:hi] = self.bra @ states[self.checkpoints[lo:hi] - first]


def _qsd_chunk(args) -> tuple:
    model, shifts, vec, total_time, delta_t, streams = args
    steps, _ = grid_steps(total_time, delta_t)
    count = len(streams)
    kernel = _QSDKernel(lower_model(model, shifts), total_time, steps, vec, count)
    # Each trajectory's noise comes from its own stream, so the outcome is
    # independent of how trajectories are grouped into chunks.
    rngs = [np.random.default_rng(s) for s in streams]
    source = NoiseSource(rngs, 2 * kernel.channels, "standard_normal")
    x0 = np.repeat(vec[:, np.newaxis], count, axis=1)
    # An overflowing trajectory may reach inf or nan before the block ends;
    # the screen in reduce() excludes it.
    with np.errstate(over="ignore", invalid="ignore"):
        stream_ensemble(x0, steps, [source], kernel, scratch_bytes=16 * kernel.channels)

    alive = kernel.alive
    z_alive = kernel.overlaps[:, alive]
    final = z_alive[-1]
    return (
        z_alive.sum(axis=1),
        float(np.sum(final.real**2)),
        float(np.sum(final.imag**2)),
        int(alive.sum()),
        int(count - alive.sum()),
    )


def _run_ensemble(
    model: LindbladModel,
    phi0,
    config: QSDConfig,
    shifts: Optional[ShiftSet],
    chunk_size: int,
):
    vec = np.asarray(getattr(phi0, "amplitudes", phi0), dtype=complex).reshape(-1)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("phi0 must be normalized within 1e-12")
    seeds = trajectory_seeds(config.seed, config.n_trajectories)
    jobs = [
        (model, shifts, vec, config.total_time, config.delta_t, seeds[lo : lo + chunk_size])
        for lo in range(0, config.n_trajectories, chunk_size)
    ]
    results = map_ordered(_qsd_chunk, jobs)

    # QSDConfig has already warned if the grid snapped.
    steps, dt = grid_steps(config.total_time, config.delta_t)
    checkpoints = _checkpoint_indices(steps)
    z_sums = np.zeros(len(checkpoints), dtype=complex)
    re2 = im2 = 0.0
    used = excluded = 0
    for sums, r2, i2, ok, dropped in results:
        z_sums += sums
        re2 += r2
        im2 += i2
        used += ok
        excluded += dropped
    if excluded:
        warnings.warn(
            f"excluded {excluded} trajectories whose norm exceeded {NORM_OVERFLOW:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    if used == 0:
        raise AllOverflowError(excluded)

    means = z_sums / used
    mean_overlap = complex(means[-1])
    if used > 1:
        var_re = max(re2 / used - mean_overlap.real**2, 0.0) * used / (used - 1)
        var_im = max(im2 / used - mean_overlap.imag**2, 0.0) * used / (used - 1)
        std_error = float(np.sqrt((var_re + var_im) / used))
    else:
        std_error = 0.0
    overlap_arg = float(np.sum(np.angle(means[1:] * np.conj(means[:-1]))))
    times = checkpoints * dt
    return mean_overlap, std_error, overlap_arg, used, excluded, times


def _energy_trace(lowered, times: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Tr[rho(t) K(t)] at each grid time, one einsum per run of cells."""
    values = np.empty(len(times))
    for a, b, cell in key_runs(lowered.cells_at(times)):
        values[a:b] = np.einsum("nij,ji->n", rhos[a:b], lowered.values[cell].k).real
    return values


def averaged_overlap(
    model: LindbladModel,
    phi0,
    config: QSDConfig,
    shifts: Optional[ShiftSet] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> tuple[complex, float]:
    """Monte Carlo estimate of E[<phi_0|phi(T)>] with its standard error."""
    mean_overlap, std_error, _, _, _, _ = _run_ensemble(
        model, phi0, config, shifts, chunk_size
    )
    return mean_overlap, std_error


def averaged_geometric_phase(
    model: LindbladModel,
    phi0,
    config: QSDConfig,
    shifts: Optional[ShiftSet] = None,
    density_steps: int = 2048,
    chunk_size: int = DEFAULT_CHUNK,
) -> QSDEnsembleResult:
    """Averaged geometric phase of the diffusive unraveling.

    The overlap argument is tracked through checkpoint means every
    total_time / 64 so multi-period runs unwrap correctly. The dynamical
    term integrates Tr[rho(t) K(t)] along the deterministic master-equation
    solution of the model actually simulated.
    """
    mean_overlap, std_error, overlap_arg, used, excluded, _ = _run_ensemble(
        model, phi0, config, shifts, chunk_size
    )
    lowered = lower_model(model, shifts)
    vec = np.asarray(getattr(phi0, "amplitudes", phi0), dtype=complex).reshape(-1)
    times, rhos = evolve_states(
        lowered, DensityMatrix.from_pure(vec), config.total_time, density_steps
    )
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
