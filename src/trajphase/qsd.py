"""Linear diffusive unraveling driven by complex two-point increments.

One Euler-Maruyama step of the linear equation:

    phi -> phi + [-i H(t) - (strength / 2) sum_m L_m^dag L_m] phi dt
               + sqrt(strength) sum_m L_m phi dw_m,

with dw_m = sqrt(dt/2) (xi_1 + i xi_2), xi_1 and xi_2 independent and +1
or -1 with equal probability (the simplified weak Euler scheme, Kloeden
and Platen 1992, section 14.1). These increments have the moments of the
complex Wiener increment that the estimator depends on, E[dw] = 0,
E[dw dw] = 0 and E[dw dw*] = dt, so the SDE being sampled is unchanged:
<phi_0|phi(T)> is linear in the final state, and its mean and variance on
a given grid are those of Gaussian increments. Only per-seed samples differ
from a Gaussian draw. There is no renormalization; the ensemble mean of
|phi><phi| reproduces the master equation, and the averaged phase

    phase = arg E[<phi_0|phi(T)>] + integral of Tr[rho(t) K(t)] dt

uses the exact master-equation rho(t), not the ensemble estimate: the
integral is exact per cell of the schedule (`lindblad.energy_integral`),
with no grid of its own. The branch of the argument comes from the exact
mean path E[phi_k] on the estimator's grid, so a chunk returns only its
final overlaps, which `_ensemble.mean_and_error` reduces. With shifts,
channels become L_m - f_m while the Hamiltonian field is untouched (the
regrouped Hermitian K enters only the dynamical term); both come from
`lindblad.lower_model`. Several shift sets of one model run as one ensemble
pass (`averaged_geometric_phases`), in which trajectory i draws the same
noise at every point.

A step is two NumPy calls on one slot of a ring of (1 + C, d, P, N)
arrays: a broadcast multiply writes dw_m phi into the slot's noise rows,
and one batched product with [I - i dt K_tilde | sqrt(strength) L_1 |
... | sqrt(strength) L_C] writes the next slot's state. Each trajectory
reads its increments as bit pairs of raw PCG64 words from its own stream,
in blocks of steps; see `_QSDKernel.run`.
"""

from __future__ import annotations

import dataclasses
import itertools
import warnings
from typing import Optional, Sequence

import numpy as np

from ._ensemble import chunked, grid_steps, map_ordered, sampling_grid, trajectory_seeds
from ._ensemble import mean_and_error
from .lindblad import LindbladModel, ShiftSet, energy_integral, lower_model
from .operators import normalized_state_vector, run_states, step_runs, unit_vector, wrap_phase

# Unused here; bench/tracing.py wraps these names on this module.
from .lindblad import apply_shift, evolve_density, shifted_hamiltonian  # noqa: F401

NORM_OVERFLOW = 1e100
# Trajectories per worker batch.
DEFAULT_CHUNK = 2048
# Working memory of one chunk: its ring of states, at most an eighth of
# the budget so that it stays in a core's cache, and one block of noise in
# the rest. The increments are two-point, sqrt(dt/2) (+-1 +- i), with the
# Wiener increment's first and second moments, so the SDE is unchanged;
# each is two bits of a raw PCG64 word (`_QSDKernel.run`). Per
# trajectory-step a block holds 16 C B of increments and C/4 B of words,
# plus what decoding them takes: C/4 B of the words' bytes transposed, C B
# of bit pairs and the 8 C B of intp indices that the gather converts them
# to. Blocks are whole multiples of 32 steps, except a run's last, so 32
# steps read exactly C words and the increments do not depend on the
# budget. At 2048 trajectories of one point and one channel the ring holds
# 15 steps and a block 256.
BLOCK_BYTES = 16 * 2**20
# Right shifts that bring bit pairs 0-3 of a byte to its lowest two bits.
_PAIR_SHIFTS = np.arange(0, 8, 2, dtype=np.uint8)[:, np.newaxis]


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
    N trajectories. Trajectory i of every point sees the same noise.

    Each combination of the points' cells has one (P, d, (1 + C) d) stack of
    the matrices [I - i dt K_tilde | sqrt(lam) L_1 | ... | sqrt(lam) L_C].
    A step works on one slot of shape (1 + C, d, P, N): slot[0] is the
    state and slot[1 + m] receives dw_m times it. So a step is two calls
    for any C: one broadcast multiply, from slot[0] into slot[1:] (disjoint
    memory, so NumPy copies nothing), and one batched product of the stack
    with the slot read as (P, (1 + C) d, N), which writes the next slot's
    state read as (P, d, N). Both are strided views that BLAS takes as they
    are; they are built once, so the step loop reshapes nothing.

    The slots form a ring that stays in cache. Overflow (a norm at or above
    NORM_OVERFLOW, or not finite, at any step) is screened per point each
    time the ring fills, over the ring's states; overflowed trajectories of
    a point are excluded and restart from zero. Noise is read per
    trajectory in longer blocks of steps (`run`).
    """

    def __init__(self, lowereds, total_time: float, steps: int, vec: np.ndarray, count: int):
        dt = total_time / steps
        dim = vec.shape[0]
        points = len(lowereds)
        root = np.sqrt(lowereds[0].strength)
        mats = [
            [
                np.concatenate(
                    [np.eye(dim) + dt * (-1j * c.k_tilde), *(root * l for l in c.channels)],
                    axis=1,
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
        self.channels = channels = len(lowereds[0].values[0].channels)
        self.ket = vec[:, np.newaxis, np.newaxis]
        self.bra = vec.conj()
        self.alive = np.ones((points, count), dtype=bool)
        self.screen_level = NORM_OVERFLOW / (2 * dim)

        # One slot per step of a ring segment, plus the slot it starts from.
        slot_bytes = 16 * (1 + channels) * dim * points * count
        self.ring_steps = max(1, min(steps, BLOCK_BYTES // 8 // slot_bytes - 1))
        spare = BLOCK_BYTES - (self.ring_steps + 1) * slot_bytes
        # Per trajectory-step, 25.5 C B of words, their decoding and the
        # increments (see BLOCK_BYTES), in whole multiples of 32 steps.
        noise_bytes = 51 * channels * count // 2
        self.block = min(steps, max(32, spare // max(1, noise_bytes) // 32 * 32))
        # Bit pair value b_0 + 2 b_1 decodes to sqrt(dt/2) (xi_1 + i xi_2),
        # with xi_1 = 1 - 2 b_0 and xi_2 = 1 - 2 b_1.
        self.increments = np.sqrt(dt / 2.0) * np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])
        self.ring = np.empty((self.ring_steps + 1, 1 + channels, dim, points, count), complex)
        # Per slot: state, noise rows and the (P, (1 + C) d, N) operand of
        # the product; the product writes the (P, d, N) view of a state.
        self.slots = [
            (s[0], s[1:], s.reshape(-1, points, count).transpose(1, 0, 2)) for s in self.ring
        ]
        self.outputs = [s[0].transpose(1, 0, 2) for s in self.ring]
        # The slot that holds the current states.
        self.pos = 0

    def run(self, rngs: Sequence[np.random.Generator]) -> None:
        """Advance every trajectory from the initial state through the grid,
        trajectory i drawing from rngs[i], and leave the (P, N) overlaps at T
        in `final`.

        The increments are two-point: dw = sqrt(dt/2) (xi_1 + i xi_2), xi_1
        and xi_2 = +-1 with equal probability, which have the Wiener
        increment's E[dw] = 0, E[dw dw] = 0 and E[dw dw*] = dt. The SDE
        stepped is unchanged; only the increments' sampling law differs
        from complex Gaussian draws.

        Trajectory i's increment j = k C + m (step k, channel m) is bit pair
        j of the raw 64-bit words of rngs[i]'s bit generator, bits
        2 (j mod 32) and 2 (j mod 32) + 1 of word j // 32, decoded by
        `increments`. Words are read in blocks of steps, each a whole
        multiple of 32 steps but the last, so the blocks read the stream's
        words in order whatever their length, and memory stays within
        BLOCK_BYTES whatever the number of steps."""
        count = len(rngs)
        channels = self.channels
        draws = [rng.bit_generator.random_raw for rng in rngs]
        # Flat, so the shorter last block is still one contiguous array.
        words = np.empty(count * -(-self.block * channels // 32), dtype="<u8")
        pairs = np.empty(32 * words.size, dtype=np.uint8)
        incs = np.empty(32 * words.size, dtype=complex)
        self.ring[0, 0] = self.ket
        stacks = itertools.chain.from_iterable(map(itertools.repeat, self.stacks, self.lengths))
        for start in range(0, self.steps, self.block):
            n = min(self.block, self.steps - start)
            width = -(-n * channels // 32)
            block = words[: count * width]
            np.concatenate([draw(width) for draw in draws], out=block)
            # Little-endian words, so byte b of a trajectory's words holds
            # its increments 4b .. 4b + 3; row b holds every trajectory's.
            octets = np.ascontiguousarray(block.view(np.uint8).reshape(count, -1).T)
            # Row 4b + q: bit pair q of byte b, every trajectory's increment 4b + q.
            split = pairs[: 32 * block.size].reshape(8 * width, 4, count)
            np.right_shift(octets[:, np.newaxis], _PAIR_SHIFTS, out=split)
            split &= 3
            # The (n C, N) increments. "clip" never clips a pair; it lets take
            # write into dws directly.
            dws = incs[: n * channels * count].reshape(-1, count)
            np.take(self.increments, split.reshape(-1, count)[: len(dws)], out=dws, mode="clip")
            self.advance(dws.reshape(n, channels, 1, 1, count), stacks)
        if self.pos:
            self.screen(self.ring[1 : self.pos + 1, 0])
        self.final = self.bra @ self.outputs[self.pos]

    def advance(self, dws: np.ndarray, stacks) -> None:
        """Take len(dws) steps, one stack from the iterator stacks each,
        screening the ring's states whenever it fills."""
        done = 0
        while done < len(dws):
            pos = self.pos
            n = min(len(dws) - done, self.ring_steps - pos)
            # dws first, so zip stops without taking a stack too many.
            steps = zip(dws[done : done + n], stacks, self.slots[pos:], self.outputs[pos + 1 :])
            for dw, stack, (state, rows, operand), out in steps:
                np.multiply(dw, state, out=rows)
                np.matmul(stack, operand, out=out)
            done += n
            self.pos += n
            if self.pos == self.ring_steps:
                self.screen(self.ring[1:, 0])
                # The segment's last state, with the screen's edits, starts the next.
                self.ring[0, 0] = self.ring[-1, 0]
                self.pos = 0

    def screen(self, states: np.ndarray) -> None:
        """Exclude the trajectories of each point whose norm overflowed at
        any of the (n, d, P, N) states, and zero them in the last state."""
        # A norm at or above NORM_OVERFLOW needs a real or imaginary part of
        # at least NORM_OVERFLOW / sqrt(2d). A column whose parts all stay
        # below the smaller screen NORM_OVERFLOW / (2d) has not overflowed;
        # the others (nan included) get the exact per-step norm test.
        parts = states.view(float)
        peak = np.maximum(parts.max(axis=(0, 1)), -parts.min(axis=(0, 1)))
        # (P, N): the larger of each column's real and imaginary peaks.
        suspects = ~(np.maximum(peak[:, 0::2], peak[:, 1::2]) < self.screen_level)
        for p, alive in enumerate(self.alive):
            suspect = np.flatnonzero(suspects[p])
            if suspect.size:
                norms = np.linalg.norm(states[:, :, p][:, :, suspect], axis=1)
                blown = suspect[alive[suspect] & ~(norms < NORM_OVERFLOW).all(axis=0)]
                alive[blown] = False
                states[-1, :, p][:, blown] = 0.0


def _qsd_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """One chunk at every point of shift_sets, in one pass: the (P, N) final
    overlaps <phi_0|phi(T)> and the (P, N) mask of those that did not overflow."""
    model, shift_sets, vec, total_time, delta_t, streams = args
    steps, _ = grid_steps(total_time, delta_t)
    lowereds = [lower_model(model, shifts) for shifts in shift_sets]
    kernel = _QSDKernel(lowereds, total_time, steps, vec, len(streams))
    # Each trajectory's noise comes from its own stream, so the outcome is
    # independent of how trajectories are grouped into chunks. An
    # overflowing trajectory may reach inf or nan before the ring fills;
    # the kernel's screen excludes it.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel.run([np.random.default_rng(s) for s in streams])
    return kernel.final, kernel.alive


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
        cols = run_states({c: drift}, [(0, b - a, c)], start).T
        path = bra @ cols
        total += float(np.sum(np.angle(path[1:] * path[:-1].conj())))
        start = unit_vector(cols[:, -1])
    return total


def _point_result(
    lowered, vec: np.ndarray, config: QSDConfig, overlaps: np.ndarray
) -> QSDEnsembleResult:
    """One point's estimates from its surviving trajectories' final overlaps,
    in trajectory order, and its dynamical term; NaN if none survived."""
    used, excluded = overlaps.size, config.n_trajectories - overlaps.size
    if excluded:
        warnings.warn(
            f"excluded {excluded} trajectories whose norm exceeded {NORM_OVERFLOW:g}",
            RuntimeWarning,
            stacklevel=3,
        )
    if used == 0:
        nan = float("nan")
        return QSDEnsembleResult(complex(nan, nan), nan, nan, nan, nan, 0, excluded)

    mean, error = mean_and_error(overlaps)
    mean_overlap, std_error = complex(mean), float(error)
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
    vec = normalized_state_vector(phi0, model.dim, "phi0")
    shift_sets = list(shift_sets)
    if not shift_sets:
        return []
    seeds = trajectory_seeds(config.seed, config.n_trajectories)
    jobs = [
        (model, shift_sets, vec, config.total_time, config.delta_t, streams)
        for streams in chunked(seeds, chunk_size)
    ]
    finals, alive = (np.concatenate(c, axis=-1) for c in zip(*map_ordered(_qsd_chunk, jobs)))
    return [
        _point_result(lower_model(model, shifts), vec, config, final[kept])
        for shifts, final, kept in zip(shift_sets, finals, alive)
    ]


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
