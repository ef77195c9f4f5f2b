"""The four benchmark workloads: scenario generation and correctness gates.

Each workload is one scenario for one CLI command. `build(seed, tiny)` makes
the YAML mapping from the seed alone; `check(scenario, text)` grades the
command's output, one entry per operation. An operation is one output row
(nojump_sweep, qsd_shift_pair) or one run-level check (jump_piecewise,
hidden_shift_check). `text` is None when the command failed, which fails
every operation.

All references come from `trajphase.dephasing` closed forms or from the
exact dephasing density matrix, never from another numeric path of the
program.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable, Optional

import numpy as np
from trajphase.dephasing import (
    DephasingParams,
    closed_form_dynamical_phase,
    closed_form_no_jump_phase,
    closed_form_overlap_phase,
)
from trajphase.operators import wrap_phase

OMEGA = 1.0
PHASE_TOL = 1e-6
RHO_RESIDUAL_TOL = 1e-8
MIN_PHASE_MOVE = 1e-3
# Standard errors allowed between a Monte Carlo estimate and its exact value.
# Every run checks about eight such estimates on a fresh seed; at 3 SE about
# one seed in fifty would fail with correct code, at 5 SE about one in 10^5.
Z_GATE = 5.0
SHIFT_CELLS = 16


@dataclasses.dataclass(frozen=True)
class Scenario:
    command: str
    config: dict
    # Units of work in one CLI call, named by `unit`.
    work: int
    unit: str
    # Parameters the gates compare against.
    ref: dict


@dataclasses.dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], Scenario]
    check: Callable[[Scenario, Optional[str]], list[Op]]


def _model(strength: float) -> dict:
    return {
        "dim": 2,
        "hamiltonian": {"preset": "precession", "omega": OMEGA},
        "lindblads": ["sigma_z"],
        "lambda": strength,
    }


def _hidden_shift(seed: int, total_time: float) -> tuple[dict, list[float]]:
    """Real piecewise shift of sigma_z, which is hidden: conj(f) L is Hermitian.

    Values stay in [0.2, 1] so the shifted no-jump phase moves well clear of
    MIN_PHASE_MOVE and jump rates stay far below 1 / delta_t.
    """
    values = np.random.default_rng(seed).uniform(0.2, 1.0, SHIFT_CELLS)
    values = [float(v) for v in values]
    cell = total_time / SHIFT_CELLS
    return {"cell": cell, "values": [[v, 0.0] for v in values]}, values


def _params(strength: float, shift: float, theta0: float) -> DephasingParams:
    return DephasingParams(omega=OMEGA, strength=strength, shift=shift, theta0=theta0)


def _table(text: str) -> tuple[list[dict], dict]:
    """CSV rows as dicts of strings, plus '# summary key value' lines."""
    summary = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("# summary "):
            _, _, key, value = line.split(" ", 3)
            summary[key] = float(value)
        elif line.startswith("#") or not line:
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows, summary


def _all_failed(names: list[str], detail: str) -> list[Op]:
    return [Op(name, False, detail) for name in names]


# --- nojump_sweep -----------------------------------------------------------


def _build_nojump(seed: int, tiny: bool) -> Scenario:
    shifts = [0.0, 0.2, 2.0]
    count = 5 if tiny else 21
    steps = 256 if tiny else 4096
    theta0 = math.pi / 2
    config = {
        "model": _model(0.5),
        "initial_state": {"theta": theta0, "phi": 0.0},
        "run": {"T": 2 * math.pi / OMEGA, "steps": steps, "seed": 0},
        "sweep": {"f": shifts, "lambda": {"start": 0.0, "stop": 1.0, "count": count}},
    }
    points = [(f, float(lam)) for f in shifts for lam in np.linspace(0.0, 1.0, count)]
    return Scenario(
        "nojump-phase", config, len(points), "points", {"theta0": theta0, "points": points}
    )


def _check_nojump(sc: Scenario, text: Optional[str]) -> list[Op]:
    points = sc.ref["points"]
    names = [f"row f={f:g} lambda={lam:g}" for f, lam in points]
    if text is None:
        return _all_failed(names, "command failed")
    rows, _ = _table(text)
    if len(rows) != len(points):
        return _all_failed(names, f"{len(rows)} rows, expected {len(points)}")
    ops = []
    for name, (f, lam), row in zip(names, points, rows):
        if abs(float(row["f"]) - f) > 1e-12 or abs(float(row["lambda"]) - lam) > 1e-12:
            ops.append(Op(name, False, "row out of order"))
            continue
        if row["status"] != "ok":
            ops.append(Op(name, False, f"status {row['status']}"))
            continue
        closed = closed_form_no_jump_phase(_params(lam, f, sc.ref["theta0"]))
        err = abs(wrap_phase(float(row["phase"]) - closed))
        ops.append(Op(name, err <= PHASE_TOL, f"|phase - closed form| = {err:.3g}"))
    return ops


# --- qsd_shift_pair ---------------------------------------------------------


def _build_qsd(seed: int, tiny: bool) -> Scenario:
    # The tiny size keeps two chunks per row, so worker counts matter.
    n_traj = 2500 if tiny else 256
    total = 0.5 if tiny else 2 * math.pi / OMEGA
    delta_t = 1e-3
    strength = 0.1
    shifts = [0.0, 1.0]
    theta0 = math.pi / 2
    config = {
        "model": _model(strength),
        "initial_state": {"theta": theta0, "phi": 0.0},
        "run": {"T": total, "delta_t": delta_t, "n_trajectories": n_traj, "seed": 0},
        "sweep": {"f": shifts},
    }
    steps = round(total / delta_t)
    return Scenario(
        "qsd-phase",
        config,
        len(shifts) * n_traj * steps,
        "traj_steps",
        {"theta0": theta0, "strength": strength, "total": total, "shifts": shifts},
    )


def _check_qsd(sc: Scenario, text: Optional[str]) -> list[Op]:
    shifts = sc.ref["shifts"]
    names = [f"row f={f:g}" for f in shifts] + ["rows agree"]
    if text is None:
        return _all_failed(names, "command failed")
    rows, _ = _table(text)
    if len(rows) != len(shifts):
        return _all_failed(names, f"{len(rows)} rows, expected {len(shifts)}")
    ops = []
    for name, f, row in zip(names, shifts, rows):
        p = _params(sc.ref["strength"], f, sc.ref["theta0"])
        closed = closed_form_overlap_phase(p, sc.ref["total"]) + closed_form_dynamical_phase(
            p, sc.ref["total"]
        )
        err = abs(wrap_phase(float(row["phase"]) - closed))
        se = float(row["phase_se"])
        ok = abs(float(row["f"]) - f) <= 1e-12 and err <= Z_GATE * se
        ops.append(Op(name, ok, f"|phase - closed form| = {err:.3g}, SE {se:.3g}"))
    a, b = rows
    diff = abs(wrap_phase(float(a["phase"]) - float(b["phase"])))
    se = math.hypot(float(a["phase_se"]), float(b["phase_se"]))
    ops.append(Op(names[-1], diff <= Z_GATE * se, f"|difference| = {diff:.3g}, SE {se:.3g}"))
    return ops


# --- jump_piecewise ---------------------------------------------------------

_RHO_KEYS = ("rho00", "re_rho01", "im_rho01", "rho11")


def _build_jump(seed: int, tiny: bool) -> Scenario:
    # The tiny size keeps two chunks, so worker counts matter.
    n_traj = 2500 if tiny else 512
    total = 0.4 if tiny else math.pi
    delta_t = 1e-3
    strength = 0.5
    theta0 = math.pi / 2
    shift, values = _hidden_shift(seed, total)
    config = {
        "model": _model(strength),
        "shifts": [shift],
        "initial_state": {"theta": theta0, "phi": 0.0},
        "run": {"T": total, "delta_t": delta_t, "n_trajectories": n_traj, "seed": 0},
    }
    # The shift is hidden, so rho(t) is the plain dephasing solution.
    c, s = math.cos(theta0 / 2), math.sin(theta0 / 2)
    coherence = c * s * complex(math.cos(OMEGA * total), -math.sin(OMEGA * total))
    coherence *= math.exp(-2.0 * strength * total)
    exact = {
        "rho00": c * c,
        "re_rho01": coherence.real,
        "im_rho01": coherence.imag,
        "rho11": s * s,
    }
    # E[jumps] = strength * integral of Tr[(L - f) rho (L - f)^dag] dt, and
    # <sigma_z> = cos(theta0) = 0 on the equator, leaving 1 + f^2 per cell.
    mean_jumps = strength * shift["cell"] * sum(1.0 + v * v for v in values)
    steps = round(total / delta_t)
    return Scenario(
        "jump-sample",
        config,
        n_traj * steps,
        "traj_steps",
        {"n_traj": n_traj, "exact": exact, "mean_jumps": mean_jumps},
    )


def _check_jump(sc: Scenario, text: Optional[str]) -> list[Op]:
    names = ["mean_jumps"] + [f"final_{k}" for k in _RHO_KEYS]
    if text is None:
        return _all_failed(names, "command failed")
    rows, summary = _table(text)
    n_traj = sc.ref["n_traj"]
    jumps = np.array([int(r["jumps"]) for r in rows])
    records_ok = (
        len(rows) == n_traj
        and [int(r["trajectory"]) for r in rows] == list(range(n_traj))
        and all(int(r["survival"]) == int(j == 0) for r, j in zip(rows, jumps))
        and summary.get("n_trajectories") == n_traj
        and math.isclose(float(jumps.mean()), summary.get("mean_jumps", math.nan), rel_tol=1e-12)
    )
    err = abs(summary["mean_jumps"] - sc.ref["mean_jumps"]) if records_ok else math.nan
    se = summary.get("mean_jumps_se", math.nan)
    ops = [
        Op(
            "mean_jumps",
            records_ok and err <= Z_GATE * se,
            f"records consistent: {records_ok}, |mean - exact| = {err:.3g}, SE {se:.3g}",
        )
    ]
    se = summary.get("max_std_error", math.nan)
    for key in _RHO_KEYS:
        err = abs(summary.get(f"final_{key}", math.nan) - sc.ref["exact"][key])
        ops.append(Op(f"final_{key}", err <= Z_GATE * se, f"|error| = {err:.3g}, SE {se:.3g}"))
    return ops


# --- hidden_shift_check -----------------------------------------------------


def _build_hidden(seed: int, tiny: bool) -> Scenario:
    steps = 512 if tiny else 2048
    total = 2 * math.pi / OMEGA
    strength = 0.5
    theta0 = math.pi / 3
    shift, _ = _hidden_shift(seed, total)
    config = {
        "model": _model(strength),
        "shifts": [shift],
        "initial_state": {"theta": theta0, "phi": 0.0},
        "run": {"T": total, "steps": steps, "seed": 0},
    }
    # Two evolve_density calls, shifted and plain, on the run grid.
    return Scenario(
        "symmetry-check",
        config,
        2 * steps,
        "rho_steps",
        {"plain_phase": closed_form_no_jump_phase(_params(strength, 0.0, theta0))},
    )


def _check_hidden(sc: Scenario, text: Optional[str]) -> list[Op]:
    names = ["hidden", "rho_residual_max", "phase_difference", "phase_without_shift"]
    if text is None:
        return _all_failed(names, "command failed")
    doc = json.loads(text)
    residual = doc["rho_residual_max"]
    moved = abs(doc["phase_difference"])
    err = abs(wrap_phase(doc["phase_without_shift"] - sc.ref["plain_phase"]))
    return [
        Op("hidden", doc["hidden"] is True, f"hidden = {doc['hidden']}"),
        Op("rho_residual_max", residual <= RHO_RESIDUAL_TOL, f"{residual:.3g}"),
        Op("phase_difference", moved > MIN_PHASE_MOVE, f"{moved:.6g}"),
        Op("phase_without_shift", err <= PHASE_TOL, f"|phase - closed form| = {err:.3g}"),
    ]


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("nojump_sweep", _build_nojump, _check_nojump),
        Workload("qsd_shift_pair", _build_qsd, _check_qsd),
        Workload("jump_piecewise", _build_jump, _check_jump),
        Workload("hidden_shift_check", _build_hidden, _check_hidden),
    )
}
