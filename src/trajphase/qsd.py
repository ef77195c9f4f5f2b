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

from ._ensemble import map_ordered, sampling_grid, trajectory_seeds
from .lindblad import DensityMatrix, LindbladModel, ShiftSet, evolve_lowered, lower_model
from .operators import PureState

# Unused here; bench/tracing.py wraps these names on this module.
from .lindblad import apply_shift, evolve_density, shifted_hamiltonian  # noqa: F401

NORM_OVERFLOW = 1e100
CHECKPOINT_INTERVALS = 64
# Trajectories per worker batch; bounds the resident noise block.
DEFAULT_CHUNK = 2048


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


def _qsd_chunk(args) -> tuple:
    model, shifts, vec, total_time, delta_t, streams = args
    steps, dt = sampling_grid(total_time, delta_t)
    checkpoints = _checkpoint_indices(steps)
    lam = model.strength
    count = len(streams)
    dim = vec.shape[0]
    channels = len(model.lindblads)

    # The whole noise block per trajectory comes from its own stream, so the
    # outcome is independent of how trajectories are grouped into chunks.
    rngs = [np.random.default_rng(s) for s in streams]
    noise = np.stack([r.standard_normal((steps, 2 * channels)) for r in rngs])
    scale = np.sqrt(dt / 2.0)
    dws = scale * (noise[:, :, :channels] + 1j * noise[:, :, channels:])

    # Euler matrix I - i K_tilde dt and scaled noise operators, per cell.
    lowered = lower_model(model, shifts)
    cells = lowered.step_cells(0.0, total_time, steps).tolist()
    mats = [
        (np.eye(dim) + dt * (-1j * c.k_tilde), [np.sqrt(lam) * l for l in c.channels])
        for c in lowered.values
    ]

    states = np.tile(vec, (count, 1))
    alive = np.ones(count, dtype=bool)
    z_buffer = np.empty((count, len(checkpoints)), dtype=complex)
    z_buffer[:, 0] = states @ vec.conj()
    next_cp = 1
    for k in range(steps):
        euler, noise_ops = mats[cells[k]]
        new_states = states @ euler.T
        for m, op in enumerate(noise_ops):
            new_states += dws[:, k, m, np.newaxis] * (states @ op.T)
        states = new_states
        norms = np.linalg.norm(states, axis=1)
        blown = alive & ~(norms < NORM_OVERFLOW)
        if blown.any():
            alive &= ~blown
            states[blown] = 0.0
        if next_cp < len(checkpoints) and k + 1 == checkpoints[next_cp]:
            z_buffer[:, next_cp] = states @ vec.conj()
            next_cp += 1

    z_alive = z_buffer[alive]
    z_sums = z_alive.sum(axis=0)
    final = z_alive[:, -1]
    return (
        z_sums,
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

    steps, dt = sampling_grid(config.total_time, config.delta_t)
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
        raise RuntimeError("every trajectory overflowed; nothing to average")

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
    grid = evolve_lowered(lowered, DensityMatrix.from_pure(vec), config.total_time, density_steps)
    cells = lowered.cells_at([t for t, _ in grid]).tolist()
    values = np.array(
        [np.trace(rho.entries @ lowered.values[c].k).real for c, (_, rho) in zip(cells, grid)]
    )
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
