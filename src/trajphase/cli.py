"""Command line front end.

Subcommands:
  evolve          integrate the master equation, dump rho(t) as CSV
  nojump-phase    geometric phase of the no-jump branch over a sweep
  jump-sample     Monte Carlo jump unraveling, per-trajectory records + summary
  qsd-phase       diffusive-unraveling ensemble phase
  symmetry-check  shifted vs unshifted comparison, JSON verdict

Every CSV starts with '# trajphase-schema: 1' and writes floats as 16-digit
scientific notation with '\\n' line endings, so a rerun with the same config
and seed is byte-identical. When --out is a file, a small JSON run report is
written next to it at <out>.report.json.

Exit codes: 0 success, 1 numeric failure, 2 bad configuration or arguments.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import hashlib
import json
import os
import platform
import sys
import time
import warnings
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config
from .config import _constant_real_shift
from .dephasing import closed_form_dynamical_phase, closed_form_overlap_phase
from .jump import (
    BranchTrackingError,
    TotalDecayError,
    average_jump_ensemble,
    sweep_no_jump_phases,
)
from .lindblad import (
    DensityMatrix,
    LindbladModel,
    ShiftSet,
    apply_shift,
    evolve_density,
    evolve_states,
    lower_points,
    lower_sweep,
    shift_is_hidden,
)
from .operators import wrap_phase
from .qsd import QSDConfig, sweep_averaged_phases

# Unused here; bench/tracing.py wraps these names on this module.
from .jump import no_jump_geometric_phase  # noqa: F401
from .lindblad import shifted_hamiltonian  # noqa: F401
from .qsd import averaged_geometric_phase  # noqa: F401

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2

SCHEMA_LINE = "# trajphase-schema: 1"
# Thread settings the BLAS reads once, at load; the report records them.
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return f"{float(value):.16e}"


def _row(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _density_columns(dim: int) -> list[str]:
    names = []
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                names.append(f"rho{i}{j}")
            else:
                names.append(f"re_rho{i}{j}")
                names.append(f"im_rho{i}{j}")
    return names


def _density_values(entries: np.ndarray, dim: int) -> list[float]:
    values = []
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                values.append(float(entries[i, i].real))
            else:
                values.append(float(entries[i, j].real))
                values.append(float(entries[i, j].imag))
    return values


def _cmd_evolve(cfg: ScenarioConfig) -> str:
    total = cfg.run.require("total_time", "evolve")
    model = cfg.model if cfg.shifts is None else apply_shift(cfg.model, cfg.shifts)
    rho0 = DensityMatrix.from_pure(cfg.initial_state)
    samples = evolve_density(model, rho0, total, steps=cfg.run.steps)
    dim = cfg.model.dim
    lines = [SCHEMA_LINE, ",".join(["t"] + _density_columns(dim))]
    for t, rho in samples:
        lines.append(_row([t] + _density_values(rho.entries, dim)))
    return "\n".join(lines) + "\n"


def _cmd_nojump_phase(cfg: ScenarioConfig) -> str:
    total = cfg.run.require("total_time", "nojump-phase")
    names = [axis.name for axis in cfg.sweep]
    header = names + [
        "phase",
        "overlap_arg",
        "dynamical_term",
        "survival",
        "crossings",
        "status",
    ]
    lines = [SCHEMA_LINE, ",".join(header)]
    nan = float("nan")
    grid = cfg.sweep_grid()
    # The sweep varies f, lambda and theta0 only, so every point shares the
    # model's schedules and the run grid: one lowering and one tracker call
    # serve them all.
    lowered = lower_sweep(cfg.model, grid.strengths, grid.shifts, grid.shift_cell)
    outcomes = sweep_no_jump_phases(lowered, grid.states, total, steps=cfg.run.steps)
    for point, res in zip(grid.assignments, outcomes):
        row: list = [point[n] for n in names]
        if isinstance(res, (BranchTrackingError, TotalDecayError)):
            # Flag the point and keep sweeping; the report collects the warning.
            if isinstance(res, TotalDecayError):
                status, what = "total-decay", "no-jump norm underflowed"
            else:
                status, what = "branch-failure", "branch tracking failed"
            warnings.warn(
                f"{what} at {point or 'base point'}", RuntimeWarning, stacklevel=2
            )
            row += [nan, nan, nan, nan, -1, status]
        else:
            row += [
                res.phase,
                res.overlap_arg,
                res.dynamical_term,
                res.final_norm**2,
                len(res.branch_crossings),
                "ok",
            ]
        lines.append(_row(row))
    return "\n".join(lines) + "\n"


def _cmd_jump_sample(cfg: ScenarioConfig) -> str:
    total = cfg.run.require("total_time", "jump-sample")
    delta_t = cfg.run.require("delta_t", "jump-sample")
    count = cfg.run.require("n_trajectories", "jump-sample")
    result = average_jump_ensemble(
        cfg.model,
        cfg.initial_state,
        total,
        delta_t,
        count,
        cfg.run.seed,
        shifts=cfg.shifts,
    )
    lines = [SCHEMA_LINE, "trajectory,jumps,survival"]
    for i, jumps in enumerate(result.jump_counts):
        lines.append(f"{i},{int(jumps)},{1 if jumps == 0 else 0}")
    dim = cfg.model.dim
    summary: list[tuple[str, float]] = [
        ("n_trajectories", result.n_trajectories),
        ("mean_jumps", result.mean_jumps),
        ("mean_jumps_se", result.mean_jumps_error),
    ]
    final = result.estimates[-1]
    for name, value in zip(_density_columns(dim), _density_values(final, dim)):
        summary.append((f"final_{name}", value))
    summary.append(("max_std_error", float(result.std_error[-1].max())))
    for key, value in summary:
        lines.append(f"# summary {key} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def _cmd_qsd_phase(cfg: ScenarioConfig) -> str:
    total = cfg.run.require("total_time", "qsd-phase")
    delta_t = cfg.run.require("delta_t", "qsd-phase")
    count = cfg.run.require("n_trajectories", "qsd-phase")
    for axis in cfg.sweep:
        if axis.name != "f":
            raise ConfigError(f"sweep.{axis.name}", "qsd-phase sweeps the shift f only")
    header = [
        "f",
        "phase",
        "phase_se",
        "overlap_arg",
        "dynamical_term",
        "n_used",
        "n_excluded",
        "closed_form",
        "status",
    ]
    lines = [SCHEMA_LINE, ",".join(header)]
    nan = float("nan")
    grid = cfg.sweep_grid()
    # Every point is its own run, so each QSDConfig warns if delta_t snaps;
    # only the shifts differ between points, so one lowering and one pass
    # serve them all.
    configs = [
        QSDConfig(total_time=total, delta_t=delta_t, n_trajectories=count, seed=cfg.run.seed)
        for _ in grid.assignments
    ]
    lowered = lower_sweep(cfg.model, grid.strengths, grid.shifts, grid.shift_cell)
    results = sweep_averaged_phases(lowered, cfg.initial_state, configs[0])
    shift = _constant_real_shift(cfg.shift_values)
    for point, res in zip(grid.assignments, results):
        params = cfg.dephasing_params(point)
        if params is not None:
            closed = closed_form_overlap_phase(
                params, total
            ) + closed_form_dynamical_phase(params, total)
        else:
            closed = nan
        f_value = point.get("f", nan if shift is None else shift)
        status = "ok"
        if res.n_used == 0:
            # Flag the point and keep sweeping; the report collects the warning.
            warnings.warn(
                f"every trajectory overflowed at {point or 'base point'}",
                RuntimeWarning,
                stacklevel=2,
            )
            status = "all-overflow"
        lines.append(
            _row(
                [
                    f_value,
                    res.phase,
                    res.phase_std_error,
                    res.overlap_arg,
                    res.dynamical_term,
                    res.n_used,
                    res.n_excluded,
                    closed,
                    status,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_symmetry_check(cfg: ScenarioConfig) -> str:
    total = cfg.run.require("total_time", "symmetry-check")
    if cfg.shifts is None:
        raise ConfigError("shifts", "symmetry-check needs a shifts section")
    model = cfg.model
    per_channel = [
        shift_is_hidden(
            LindbladModel(model.hamiltonian, (chan,), model.strength),
            ShiftSet((sched,)),
        )
        for chan, sched in zip(model.lindblads, cfg.shifts.shifts)
    ]
    hidden = all(per_channel)

    # The plain and the shifted model, each lowered once for the density
    # evolution, the no-jump phase and the generator shift.
    plain, shifted = (sweep for sweep, _ in lower_points([(model, None), (model, cfg.shifts)]))
    rho0 = DensityMatrix.from_pure(cfg.initial_state)
    _, base = evolve_states(plain, 0, rho0, total, cfg.run.steps)
    _, moved = evolve_states(shifted, 0, rho0, total, cfg.run.steps)
    diffs = np.abs(base - moved).max(axis=(1, 2))
    residual = float(diffs.max())

    phases = []
    for lowered in (plain, shifted):
        (res,) = sweep_no_jump_phases(
            lowered, cfg.initial_state.amplitudes[np.newaxis], total, steps=cfg.run.steps
        )
        if isinstance(res, Exception):
            raise res
        phases.append(res.phase)
    phase_difference = wrap_phase(phases[1] - phases[0])

    generator_shift = float(np.max(np.abs(shifted.k - shifted.h)))

    if hidden:
        verdict = (
            f"hidden shift: density evolution unchanged "
            f"(max residual {residual:.3e}); no-jump geometric phase moved "
            f"by {phase_difference:.6f} rad"
        )
    else:
        verdict = (
            f"shift is not hidden: effective Hamiltonian changes by "
            f"{generator_shift:.3e} (max entry); density residual {residual:.3e}"
        )
    doc = {
        "schema": "trajphase-symmetry-1",
        "hidden": hidden,
        "hidden_per_channel": per_channel,
        "rho_residual_final": float(diffs[-1]),
        "rho_residual_max": residual,
        "phase_without_shift": phases[0],
        "phase_with_shift": phases[1],
        "phase_difference": phase_difference,
        "generator_shift_max": generator_shift,
        "verdict": verdict,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_COMMANDS: dict[str, Callable[[ScenarioConfig], str]] = {
    "evolve": _cmd_evolve,
    "nojump-phase": _cmd_nojump_phase,
    "jump-sample": _cmd_jump_sample,
    "qsd-phase": _cmd_qsd_phase,
    "symmetry-check": _cmd_symmetry_check,
}

_HELP = {
    "evolve": "integrate the master equation and dump rho(t) as CSV",
    "nojump-phase": "no-jump geometric phase over the configured sweep",
    "jump-sample": "jump-unraveling Monte Carlo: trajectory records and summary",
    "qsd-phase": "diffusive-unraveling ensemble geometric phase",
    "symmetry-check": "compare shifted and unshifted evolutions, emit a JSON verdict",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajphase",
        description="Trajectory-resolved open-system evolution and geometric phases.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="YAML scenario file, or a bundled preset name such as 'fig1'",
    )
    common.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file (default: stdout); also writes <out>.report.json",
    )
    common.add_argument("--seed", type=int, default=None, help="override run.seed")
    common.add_argument("--steps", type=int, default=None, help="override run.steps")
    common.add_argument(
        "--quiet", action="store_true", help="suppress warnings and progress on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _HELP.items():
        sub.add_parser(name, parents=[common], help=text, description=text)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parse_args keeps no
    state between calls."""
    return build_parser()


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    run = cfg.run
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed", "must be >= 0")
        run = dataclasses.replace(run, seed=args.seed)
    if args.steps is not None:
        if args.steps < 1:
            raise ConfigError("--steps", "must be >= 1")
        run = dataclasses.replace(run, steps=args.steps)
    return dataclasses.replace(cfg, run=run) if run is not cfg.run else cfg


def _config_digest(cfg: ScenarioConfig) -> str:
    """SHA-256 of the resolved configuration as canonical JSON: sorted keys,
    no spaces. Every number in it is finite (`config` refuses others)."""
    text = json.dumps(cfg.to_mapping(), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _blas() -> Optional[dict]:
    """Name and version of the BLAS NumPy was built with, or None where
    NumPy does not say (`np.show_config` takes no mode before 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG

    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"trajphase: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"trajphase: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = _COMMANDS[args.command](cfg)
        except ValueError as exc:
            # ConfigError included: it is a ValueError.
            print(f"trajphase: config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (RuntimeError, FloatingPointError) as exc:
            print(f"trajphase: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC

    counts = collections.Counter(str(w.message) for w in caught)
    messages = sorted(counts)
    if not args.quiet:
        for message in messages:
            print(f"trajphase: warning: {message}", file=sys.stderr)

    if args.out is None:
        sys.stdout.write(text)
        return EXIT_OK

    try:
        _write_text(args.out, text)
        report = {
            "command": args.command,
            "config_digest": _config_digest(cfg),
            "seed": cfg.run.seed,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "trajphase": __version__,
                "blas": _blas(),
            },
            "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_ENV},
            "wall_time_s": round(time.perf_counter() - started, 6),
            "warnings": messages,
            "warning_counts": dict(sorted(counts.items())),
            "outputs": [str(args.out)],
        }
        _write_text(
            f"{args.out}.report.json", json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    except OSError as exc:
        print(f"trajphase: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(f"trajphase: wrote {args.out}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
