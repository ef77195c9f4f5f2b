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
regrouped Hermitian K enters only the dynamical term); both are rows of
the one lowered form, a `lindblad.LoweredSweep`, made once per call before
the pass. Several points of one model run as one ensemble pass, each
point a (sweep, p) pair that the kernel, the mean path and the dynamical
term read (`averaged_geometric_phases`, which lowers its shift sets, or
`sweep_averaged_phases` on a lowered sweep); trajectory i draws the same
noise at every point.

A pass plans one `_QSDKernel` of arrays, which every chunk job carries
and runs on its own trajectories (`_QSDKernel.chunk`). A chunk takes k
steps at a time, an op: the most steps whose per-point
table of 4^(kC) products of one-step matrices (C channels) fits
TABLE_BYTES, and never fewer than 4 // C (6 for a qubit on one channel, 1
from four channels on). The kC increments of an op, a symbol of up to 12
bits, choose its matrix from the table of its run of ops, so an op is one
gather of each trajectory's table entry, one multiply and one sum, all
elementwise over the trajectories. An op across a cell edge, and a short
last op, takes its matrix the same way, from a table of the products of
its own steps' one-step matrices, each of its step's cell. See
`_QSDKernel`. Each trajectory reads its increments as bit pairs of raw
PCG64 words from its own stream, in blocks of ops; see `_QSDKernel.chunk`.
Ops run unscreened as far as a bound on the growth of norms shows that no
state can reach NORM_OVERFLOW (`_QSDKernel.safe_ops`), and past that one
at a time, each screened.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import warnings
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._ensemble import chunk_jobs, grid_steps, map_ordered, mean_and_error, run_chunk
from ._ensemble import sampling_grid, trajectory_seeds
from .lindblad import LindbladModel, LoweredSweep, ShiftSet, energy_integral, lower_points
from .operators import normalized_state_vector, run_states, step_runs, unit_vector, wrap_phase

# Unused here; bench/tracing.py wraps these names on this module.
from .lindblad import apply_shift, evolve_density, shifted_hamiltonian  # noqa: F401

NORM_OVERFLOW = 1e100
# Trajectories per worker batch.
DEFAULT_CHUNK = 2048
# Largest table of one op's matrices per point: an op takes the most steps
# k whose 4^(kC) entries of d x d complex, 4^(kC) d^2 16 B, fit, and never
# fewer than 4 // C (C channels). At 256 KiB a qubit's op takes 6 steps on
# one channel (4096 entries, 12-bit symbols); see `_op_span`.
TABLE_BYTES = 256 * 2**10
# Working memory of one chunk: its two states and gathered matrices per
# trajectory and point, the table of the run of ops in progress (P 4^(kC)
# d^2 16 B for P points) and one temporary of its size while it is built,
# and one block of ops' symbols in the rest (`_QSDKernel`). An op's kC
# increments are two bits each of raw PCG64 words. Per trajectory-step a
# block holds C/4 B of words, as much again while they are drawn, 8 / k B
# of intp symbol per group of 4 channels and 2 / k B of bit fields while
# they are decoded. Blocks are whole multiples of 32 ops, except a run's
# last, so 32 ops read exactly kC words and the increments do not depend
# on the budget. A block holds as many ops as fit, and no more than the
# run's ops rounded up to 32, so memory does not grow with the total time.
# At 2048 trajectories of one point and one channel 576 ops of 6 steps
# fit; at 256 trajectories of two points 4704 would, and a run of 1048
# ops (T = 2 pi, dt = 1e-3) takes one block of 1056.
BLOCK_BYTES = 16 * 2**20


def _op_span(dim: int, channels: int) -> int:
    """Steps per op of a d-level model with C channels: the most steps k
    whose per-point table, 4^(kC) d^2 16 B, fits TABLE_BYTES, and at least
    4 // C; 4 with no channels, and from five channels on 1, an op's
    matrix then summing one table entry per group of 4 channels. It depends
    on d and C only, so a point's arithmetic does not depend on the sweep
    or the chunk it runs in."""
    if channels == 0:
        return 4
    if channels > 4:
        return 1
    span = 4 // channels
    while 4 ** ((span + 1) * channels) * dim * dim * 16 <= TABLE_BYTES:
        span += 1
    return span


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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, broadcast, as one multiply per term and
    the terms summed in order, elementwise, so that an entry's rounding does
    not depend on the batch."""
    out = a[..., :, :1] * b[..., :1, :]
    for m in range(1, a.shape[-1]):
        out += a[..., :, m : m + 1] * b[..., m : m + 1, :]
    return out


def _pieces(points, bases, total_time: float, steps: int, span: int):
    """The grid's ops of span steps from a multiple of span, the last one
    possibly shorter, in pieces of ops with one table: the first op of each
    piece, its number of ops, and the (piece, step, point) rows of the
    kernel's flat one-step arrays that the steps of the piece's first op
    take. Point j's row of cell c is bases[j] + c; a step past the grid's
    end takes the last row, -1, the identity."""
    ops = -(-steps // span)
    # Each point's cell only grows with the step, so the combination of
    # cells changes exactly where some point's run starts. A piece starts at
    # op 0, at the op holding such a step and at the op after it, and at a
    # shorter last op.
    runs = {id(sweep): np.array(step_runs(sweep.grid, total_time, steps)) for sweep, _ in points}
    starts = {a for run in runs.values() for a in run[:, 0].tolist()}
    edges = {0, ops, *(a // span for a in starts), *(-(-a // span) for a in starts)}
    if steps % span:
        edges.add(ops - 1)
    edges = sorted(edges)
    first = np.array(edges[:-1])[:, np.newaxis] * span + np.arange(span)
    # Each sweep's cell at each of those steps, from the run holding it.
    cells = {key: run[np.searchsorted(run[:, 0], first, "right") - 1, 2] for key, run in runs.items()}
    rows = np.stack([cells[id(sweep)] for sweep, _ in points], axis=-1) + bases
    rows[first >= steps] = -1
    return edges[:-1], np.diff(edges).tolist(), rows


class _QSDKernel:
    """The plan of one ensemble pass, run on each chunk of N trajectories
    by `chunk`: Euler-Maruyama steps of P lowered points, each a (sweep, p)
    pair, k steps at a time (`_op_span`: 6 for a qubit on one channel).
    Trajectory i of every point sees the same noise.

    The k steps from a multiple of k form an op, and its kC increments are
    kC bit pairs of the trajectory's words: one symbol of 2kC <= 12 bits
    for C <= 4, and for C > 4 one symbol per 4 channels. So each op's matrix
    comes from a table per point: the products M_{k-1} ... M_0 of its steps'
    one-step matrices M = I - i dt K_tilde + sum_m dw_m sqrt(lam) L_m, lam
    the point's own strength, each step's M of its own cell. `one_step`
    holds them for every row and cell of each sweep, the sweeps' blocks in
    order, as one flat (rows + 1, 4^c, d, d) array per group of c <= 4
    channels; its last row is the identity, which steps past the grid's end
    take. The ops of one combination of the points' cells at each step of
    an op, a piece, share one table: a run of ops inside one cell of every
    point, a single op across a cell edge of some point, or the shorter
    last op. `pieces` holds the row of each (piece, step of its first op,
    point). A piece's table is built when its first op runs, as one outer
    product of the products of its first k // 2 steps and of the rest, and
    held in one buffer while its ops run; the next piece's table
    overwrites it. For C > 4 an op is one step, and its matrix is the sum
    of one entry of each of ceil(C / 4) tables of 4 channels, the first
    carrying the drift. Tables are stored as (d_j, d_i, P, V), built for
    every point by the same elementwise arithmetic, so a point's
    arithmetic never depends on the others.

    An op is three calls: a gather of each trajectory's table entry into
    the (d_j, d_i, P, N) buffer `gathered`, a multiply by the broadcast
    state, and a sum over the column index j. The ops alternate between the
    two (d, P, N) states of `states`: op o takes states[o % 2] to
    states[1 - o % 2]. Every call is elementwise over the trajectories, so
    a trajectory's arithmetic does not depend on the chunk either.

    No norm can overflow (reach NORM_OVERFLOW or stop being finite) at
    any step of the ops that `safe_ops` counts, which run unscreened; where
    it counts none, one op runs and `screen` excludes, per point, the
    trajectories that overflowed in it, which restart from zero. Noise is
    read per trajectory in longer blocks of ops (`chunk`).
    """

    def __init__(self, points, total_time: float, steps: int):
        dt = total_time / steps
        self.dim = dim = points[0][0].h.shape[-1]
        self.npoints = len(points)
        self.channels = channels = points[0][0].channels.shape[2]
        self.span = span = _op_span(dim, channels)
        # Increments per op, and tables (groups of at most 4 channels) per op.
        self.width = width = span * channels
        self.groups = groups = -(-max(channels, 1) // 4)
        self.ops = -(-steps // span)
        # Bit pair value b_0 + 2 b_1 decodes to sqrt(dt/2) (xi_1 + i xi_2),
        # with xi_1 = 1 - 2 b_0 and xi_2 = 1 - 2 b_1.
        self.increments = np.sqrt(dt / 2.0) * np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])
        sweeps = list({id(sweep): sweep for sweep, _ in points}.values())
        self.one_step = [
            np.concatenate([*blocks, np.broadcast_to(np.eye(dim), (1, *blocks[0].shape[1:]))])
            for blocks in zip(*(self._one_step(sweep, dt) for sweep in sweeps))
        ]
        # Each point's row of its first cell: a sweep's rows follow those of
        # the sweeps before it, and its row p follows p rows of cells.
        sizes = [sweep.k_tilde.shape[0] * sweep.k_tilde.shape[1] for sweep in sweeps]
        offsets = dict(zip(map(id, sweeps), np.cumsum([0, *sizes]).tolist()))
        bases = [offsets[id(sweep)] + p * sweep.k_tilde.shape[1] for sweep, p in points]
        self.piece_starts, self.lengths, self.pieces = _pieces(points, bases, total_time, steps, span)
        self.period, self.fields = self._fields()
        # g, a bound on the spectral norm of every one-step matrix and at
        # least 1: the largest entry's of the first group plus the largest
        # entry's of each other group. Raised by 2^-30 relative, far more
        # than the roundoff of a step can add to a norm; NaN if a matrix is.
        norms = [np.linalg.norm(group[:-1], 2, axis=(-2, -1)).max() for group in self.one_step]
        growth = np.maximum(sum(norms) * (1.0 + 2.0**-30), 1.0)
        self.log_growth = float(np.log(growth))
        # A norm at or above NORM_OVERFLOW needs a real or imaginary part of
        # at least NORM_OVERFLOW / sqrt(2d).
        self.log_limit = math.log(NORM_OVERFLOW / math.sqrt(2 * dim))
        # The states inside an op that starts from a state passing the
        # screen at this level stay below NORM_OVERFLOW.
        self.screen_level = NORM_OVERFLOW / (2 * dim) / growth ** (span - 1)
        # The table in use and one temporary of its size while it is built.
        entries = 4**width if groups == 1 else 256 * groups
        self.table_bytes = 2 * 16 * dim * dim * self.npoints * entries

    def _one_step(self, sweep, dt: float) -> list[np.ndarray]:
        """The one-step tables of every row p and cell c of sweep, one
        (P C, 4^c, d, d) array per group of c <= 4 channels, row p C + c;
        entry q of a group takes increment (q >> 2 t) & 3 for its channel t,
        and the first group adds the drift I - i dt K_tilde. Each entry is
        the arithmetic of its own row and cell."""
        rows, cells, dim = sweep.k_tilde.shape[:3]
        root = np.sqrt(sweep.strengths)[:, np.newaxis, np.newaxis, np.newaxis, np.newaxis]
        drift = np.eye(dim) + dt * (-1j * sweep.k_tilde)
        tables = []
        for lo in range(0, max(self.channels, 1), 4):
            group = sweep.channels[:, :, lo : lo + 4]
            q = np.arange(4 ** group.shape[2])
            shape = (rows, cells, len(q), dim, dim)
            table = np.broadcast_to(drift[:, :, np.newaxis] if lo == 0 else 0j, shape)
            for t in range(group.shape[2]):
                dws = self.increments[(q >> 2 * t) & 3]
                table = table + dws[:, np.newaxis, np.newaxis] * (root * group[:, :, t, np.newaxis])
            tables.append(np.ascontiguousarray(table).reshape(rows * cells, len(q), dim, dim))
        return tables

    def _fields(self) -> tuple[tuple[int, int], list[tuple]]:
        """Where `decode` reads each group's symbol. The bit offset of op o's
        group g is 2 o kC + 8 g, so the offsets repeat every
        8 / gcd(2 kC, 8) ops, that many ops' bytes later. Returns that
        period, (ops, bytes), and for each group g and each op r of a
        period: (g, r, its byte, its shift in that byte, whether it reaches
        into the next byte, and its mask, or 0 where the window's top bit
        ends the symbol)."""
        bits = 2 * self.width
        ops = 8 // math.gcd(bits, 8) if bits else 1
        fields = []
        for g in range(self.groups if self.width else 0):
            size = 2 * (self.width if self.groups == 1 else min(4, self.width - 4 * g))
            for r in range(ops):
                byte, shift = divmod(bits * r + 8 * g, 8)
                wide = shift + size > 8
                top = 16 if wide else 8
                fields.append((g, r, byte, shift, wide, (1 << size) - 1 if shift + size < top else 0))
        return (ops, bits * ops // 8), fields

    def _table(self, i: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The (first, extra) tables of piece i's run of ops, of shape
        (d_j, d_i, P, V): entry [j, i, p, v] is row i, column j of point p's
        matrix for symbol v, so a gather along V gives (d_j, d_i, P, N).

        With more than one group of channels an op is one step and each
        group has a table of its own. With one, point p's entry
        v = sum_t q_t 4^(C t) is the product M_(q_last) ... M_(q_0) of the
        piece's first op's k one-step matrices, each of its step's own cell,
        the identity past a short op's last step. It is formed as the outer
        product of the products of the last k - k // 2 steps and of the
        first k // 2, and written into one buffer that every piece's table
        reuses."""
        if self.groups > 1 or self.span == 1:
            # (P, V, d_i, d_j) matrices as (d_j, d_i, P, V) tables.
            stacks = (group[self.pieces[i, 0]].transpose(3, 2, 0, 1) for group in self.one_step)
            first, *extra = map(np.ascontiguousarray, stacks)
            return first, tuple(extra)
        # (k, P, V, d, d): each step's one-step matrices at every point.
        steps = self.one_step[0][self.pieces[i]]
        npoints, _, dim = steps.shape[1:4]
        halves = []
        for half in np.split(steps, [self.span // 2]):
            table = half[0]
            for step in half[1:]:
                table = _product(step[:, :, np.newaxis], table[:, np.newaxis])
                table = table.reshape(npoints, -1, dim, dim)
            halves.append(table)
        # (j, m, P, V_lo) and (i, m, P, V_hi): entry [j, i, p, hi, lo] of
        # the table is the sum over m of high[i, m, p, hi] low[j, m, p, lo].
        low = np.ascontiguousarray(halves[0].transpose(3, 2, 0, 1))
        high = np.ascontiguousarray(halves[1].transpose(2, 3, 0, 1))
        if self.buffer is None:
            self.buffer = np.empty((dim, dim, npoints, high.shape[3] * low.shape[3]), complex)
        out = self.buffer.reshape(dim, dim, npoints, high.shape[3], low.shape[3])
        term = np.empty_like(out)
        for m in range(dim):
            a = low[:, np.newaxis, m, :, np.newaxis, :]
            b = high[np.newaxis, :, m, :, :, np.newaxis]
            np.multiply(a, b, out=term if m else out)
            if m:
                out += term
        return self.buffer, ()

    def start(self, vec: np.ndarray, count: int) -> None:
        """Set up a chunk of count trajectories at vec: its states, (P, N)
        mask of those that did not overflow and gathered entries, no table
        held, and the ops of its blocks of noise (see BLOCK_BYTES)."""
        dim, npoints, groups = self.dim, self.npoints, self.groups
        self.held = self.buffer = None
        self.states = np.empty((2, dim, npoints, count), complex)
        self.states[0] = vec[:, np.newaxis, np.newaxis]
        self.alive = np.ones((npoints, count), dtype=bool)
        self.gathered = np.empty((min(groups, 2), dim, dim, npoints, count), complex)
        spare = BLOCK_BYTES - self.states.nbytes - self.gathered.nbytes - self.table_bytes
        # Per trajectory and 32 ops: 8 kC B of words and as much while they
        # are drawn, 256 B of symbols per group and 64 B of bit fields while
        # they are decoded (see BLOCK_BYTES).
        unit = count * (16 * self.width + 256 * groups + 64)
        self.block = 32 * min(max(1, spare // unit), -(-self.ops // 32))

    def chunk(self, vec: np.ndarray, seeds) -> tuple[np.ndarray, np.ndarray]:
        """Advance a chunk of trajectories from vec through the grid,
        trajectory i drawing raw words from the PCG64 of seeds[i], and
        return the (P, N) overlaps <phi_0|phi(T)>, 0 for an excluded
        trajectory, and the (P, N) mask of those that did not overflow.

        Trajectory i's increment j = k C + m (step k, channel m) is bit pair
        j of its raw 64-bit words, bits 2 (j mod 32) and 2 (j mod 32) + 1 of
        word j // 32, decoded by `increments`. Op o takes increments
        o kC .. o kC + kC - 1, bits 2 o kC on of the words. Words are read
        in blocks of ops (`start`), each a whole multiple of 32 ops but the
        last, so the blocks read the stream's words in order whatever their
        length, and memory stays within BLOCK_BYTES whatever the number of
        steps. An overflowing trajectory may reach inf or nan in the op
        whose screen then excludes it."""
        count = len(seeds)
        self.start(vec, count)
        draws = [np.random.PCG64(s).random_raw for s in seeds]
        # Flat, so the shorter last block is still one contiguous array, and
        # one word longer: `decode` may read a byte past a block's last row.
        words = np.empty(count * (self.block * self.width // 32) + 1, dtype="<u8")
        symbols = np.empty((self.block, self.groups, count), dtype=np.intp)
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, self.ops, self.block):
                n = min(self.block, self.ops - first)
                width = -(-n * self.width // 32)
                block = words[: count * width]
                if width:
                    np.concatenate([draw(width) for draw in draws], out=block)
                # Little-endian words: bit b of a trajectory's words is bit
                # b % 8 of its byte b // 8.
                self.decode(block.view(np.uint8).reshape(count, 8 * width), symbols[:n])
                self.advance(symbols[:n], first)
            bra = vec.conj()[:, np.newaxis, np.newaxis]
            final = np.add.reduce(bra * self.states[self.ops % 2], axis=0)
        final[~self.alive] = 0.0
        return final, self.alive

    def decode(self, octets: np.ndarray, symbols: np.ndarray) -> None:
        """Write the (n, groups, N) symbols of n ops from the (N, bytes) bytes
        of each trajectory's words: increment t of a group is its bit pair t.
        Each symbol is one bit field, read from a one- or two-byte window of
        its row, for every op of one entry of `fields` at once through one
        strided view; a window may end one byte past the last row."""
        n, count = len(symbols), len(octets)
        if not self.fields:
            # No channels: every op takes the one entry of its table.
            symbols[...] = 0
            return
        ops, stride = self.period
        values = np.empty((count, -(-n // ops)), dtype=np.uint16)
        for g, r, byte, shift, wide, mask in self.fields:
            m = len(range(r, n, ops))
            if not m:
                continue
            shape, strides = (count, m, 1 + wide), (octets.strides[0], stride, 1)
            window = as_strided(octets[:, byte:], shape, strides)
            field = values[:, :m]
            np.right_shift(window.view("<u2" if wide else np.uint8)[..., 0], shift, out=field)
            if mask:
                np.bitwise_and(field, mask, out=field)
            np.copyto(symbols[r::ops, g], field.T)

    def advance(self, symbols: np.ndarray, first: int) -> None:
        """Take the len(symbols) ops from op first, an even op, each with its
        (groups, N) symbols: op o from states[o % 2] into states[1 - o % 2].
        The ops that `safe_ops` counts run unscreened; where it counts none,
        one op runs and is screened."""
        gathered, extra_buf = self.gathered[0], self.gathered[-1]
        safe = 0
        # symbols first, so zip stops without taking a table too many.
        for op, (sym, (table, extra)) in enumerate(zip(symbols, self.tables_from(first)), first):
            pair = self.states[::-1] if op % 2 else self.states
            if not safe:
                safe = self.safe_ops(pair[0], first + len(symbols) - op)
            # "clip" never clips a symbol; it lets take write into its out directly.
            table.take(sym[0], -1, gathered, "clip")
            for tab, s in zip(extra, sym[1:]):
                gathered += tab.take(s, -1, extra_buf, "clip")
            np.multiply(gathered, pair[0][:, np.newaxis], out=gathered)
            np.add.reduce(gathered, axis=0, out=pair[1])
            if safe:
                safe -= 1
            else:
                self.screen(pair, sym, op)

    def tables_from(self, first: int):
        """The (table, extra) of each op from op first on: the op's table
        and those of the other groups. A run's table is built when its
        first op is reached."""
        i = bisect.bisect_right(self.piece_starts, first) - 1
        for i in range(i, len(self.lengths)):
            left = self.piece_starts[i] + self.lengths[i] - max(first, self.piece_starts[i])
            yield from itertools.repeat(self.piece_tables(i), left)

    def piece_tables(self, i: int):
        """Piece i's (table, extra), building its table unless it is the
        one held; no two pieces have the same cells at every step."""
        if self.held is None or self.held[0] != i:
            # Let go of the old tables before the new ones are built.
            self.held = None
            self.held = (i, self._table(i))
        return self.held[1]

    def safe_ops(self, start: np.ndarray, ops: int) -> int:
        """The most ops, up to ops, that the (d, P, N) states start can take
        with no state reaching NORM_OVERFLOW or ceasing to be finite: a part
        of start is at most its peak, a norm so at most sqrt(2d) peak, and a
        step grows a norm by at most g, so k ops are safe while peak sqrt(2d)
        g^(k span) < NORM_OVERFLOW (a peak of 0 taken as the smallest
        normal double)."""
        parts = start.view(float)
        peak = max(parts.max(), -parts.min(), np.finfo(float).tiny)
        # log(peak) + k rate < log_limit; a peak of nan or inf allows no op.
        room = self.log_limit - math.log(peak) if peak < math.inf else math.nan
        rate = self.span * self.log_growth
        if not (room > 0 and rate >= 0):
            return 0
        return ops if rate == 0 else max(0, min(ops, math.ceil(room / rate) - 1))

    def screen(self, pair: np.ndarray, symbols: np.ndarray, op: int) -> None:
        """Exclude the trajectories of each point whose norm overflowed at any
        step of op `op`, with the (groups, N) symbols, given the (2, d, P, N)
        states before and after it, and zero them in the after state."""
        # Columns whose parts all stay below screen_level have not overflowed,
        # after the op nor inside it; the others (nan included) get the exact
        # test at every step, inside the op by taking it again step by step.
        parts = pair.view(float)
        peak = np.maximum(parts.max(axis=(0, 1)), -parts.min(axis=(0, 1)))
        # (P, N): the larger of each column's real and imaginary peaks.
        suspects = ~(np.maximum(peak[:, 0::2], peak[:, 1::2]) < self.screen_level)
        for p, alive in enumerate(self.alive):
            suspect = np.flatnonzero(suspects[p])
            if suspect.size:
                before, after = pair[:, :, p][:, :, suspect]
                kept = np.linalg.norm(after, axis=0) < NORM_OVERFLOW
                if self.span > 1:
                    kept &= self.inside_ops_kept(before, symbols[0, suspect], op, p)
                blown = suspect[alive[suspect] & ~kept]
                alive[blown] = False
                pair[1, :, p][:, blown] = 0.0

    def inside_ops_kept(self, start, symbols, op: int, point: int) -> np.ndarray:
        """Whether every state inside op `op` stays below NORM_OVERFLOW, per
        column, taking the op again one step at a time from the (d, S)
        states before it with the (S,) symbols at the given point."""
        rows = self.pieces[bisect.bisect_right(self.piece_starts, op) - 1, :, point]
        x = start.T
        kept = np.ones(len(x), dtype=bool)
        for t in range(self.span - 1):
            q = (symbols >> 2 * self.channels * t) & (4**self.channels - 1)
            x = np.add.reduce(self.one_step[0][rows[t], q] * x[:, np.newaxis], axis=-1)
            kept &= np.linalg.norm(x, axis=-1) < NORM_OVERFLOW
        return kept


def _mean_path_arg(sweep, p: int, vec: np.ndarray, total_time: float, steps: int) -> float:
    """Unwrapped argument of the exact mean overlap <phi_0|E phi_k> at point
    p of sweep on the estimator's grid. The noise has mean zero and is independent of phi_k,
    so E[phi_k] follows the drift maps I - i dt K_tilde alone.

    Positive scale factors keep every argument. Each drift map is divided by
    its spectral radius, so within a run of steps in one cell the path
    neither decays nor grows geometrically, however non-normal the map. Runs
    are taken in windows of steps whose states and path values, 16 (d + 4)
    B a step, fit in half of BLOCK_BYTES, each window restarting from the
    last state before it as a unit vector."""
    dt = total_time / steps
    bra = vec.conj()
    start = vec
    total = 0.0
    window = BLOCK_BYTES // 2 // (16 * (len(vec) + 4))
    for a, b, c in step_runs(sweep.grid, total_time, steps):
        drift = np.eye(len(vec)) + dt * (-1j * sweep.k_tilde[p, c])
        drift /= np.abs(np.linalg.eigvals(drift)).max()
        for lo in range(a, b, window):
            cols = run_states({c: drift}, [(0, min(window, b - lo), c)], start).T
            path = bra @ cols
            total += float(np.sum(np.angle(path[1:] * path[:-1].conj())))
            start = unit_vector(cols[:, -1])
    return total


def _point_result(
    sweep, p: int, vec: np.ndarray, config: QSDConfig, overlaps: np.ndarray
) -> QSDEnsembleResult:
    """Point p's estimates from its surviving trajectories' final overlaps,
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
    branch = _mean_path_arg(sweep, p, vec, config.total_time, steps)
    overlap_arg = branch + wrap_phase(float(np.angle(mean_overlap)) - branch)
    dynamical = energy_integral(sweep, p, vec, config.total_time)
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
    The shift sets are lowered once, by `lindblad.lower_points`, before the
    pass.
    """
    vec = normalized_state_vector(phi0, model.dim, "phi0")
    shift_sets = list(shift_sets)
    points: list = [None] * len(shift_sets)
    for sweep, members in lower_points([(model, shifts) for shifts in shift_sets]):
        for row, i in enumerate(members):
            points[i] = (sweep, row)
    return _averaged_phases(model, points, vec, config, chunk_size)


def sweep_averaged_phases(
    sweep: LoweredSweep,
    phi0,
    config: QSDConfig,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[QSDEnsembleResult]:
    """`averaged_geometric_phases` at every point of a lowered sweep, from
    one ensemble pass."""
    vec = normalized_state_vector(phi0, sweep.model.dim, "phi0")
    points = [(sweep, p) for p in range(len(sweep))]
    return _averaged_phases(sweep.model, points, vec, config, chunk_size)


def _averaged_phases(model, points, vec, config: QSDConfig, chunk_size: int):
    """The ensemble pass of `averaged_geometric_phases` over the model's
    lowered (sweep, p) points, and each point's result."""
    if not points:
        return []
    seeds = trajectory_seeds(config.seed, config.n_trajectories)
    steps, _ = grid_steps(config.total_time, config.delta_t)
    kernel = _QSDKernel(points, config.total_time, steps)
    jobs = chunk_jobs(model, kernel, vec, config.total_time, config.delta_t, seeds, chunk_size)
    finals, alive = (np.concatenate(c, axis=-1) for c in zip(*map_ordered(run_chunk, jobs)))
    return [
        _point_result(sweep, p, vec, config, final[kept])
        for (sweep, p), final, kept in zip(points, finals, alive)
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
