"""Scenario configuration: a single YAML document describing a model, its
channel shifts, the initial state, run settings, and an optional sweep.

Matrix literals are row-major lists of [re, im] pairs; bare numbers are
accepted on input and mean a real entry. Channel presets: sigma_x, sigma_y,
sigma_z, sigma_minus (sigma_x - i sigma_y), annihilation (uses the model
dimension). The only Hamiltonian preset is precession: (omega/2) sigma_z.

`serialize_config` emits a canonical form (presets kept by name, literals
normalized to [re, im] pairs, sweeps expanded to explicit value lists) whose
re-parse is identical.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from importlib import resources
from pathlib import Path
from typing import Optional, Union

import numpy as np
import yaml

from .dephasing import DephasingParams
from .lindblad import LindbladModel, ShiftSet, stack_shifts
from .operators import (
    DEFAULT_SUBSTEPS,
    BlochAngles,
    Operator,
    OperatorSchedule,
    PureState,
    ScalarSchedule,
    annihilation,
    bloch_state,
    pauli,
    unit_vector,
)

SWEEPABLE = ("f", "lambda", "theta0")

# libyaml's parser and emitter when PyYAML was built with them: same
# documents and same dump text as the pure-Python classes, several times faster.
if yaml.__with_libyaml__:
    _LOADER, _DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _LOADER, _DUMPER = yaml.SafeLoader, yaml.SafeDumper

_CHANNEL_PRESETS = {
    "sigma_x": lambda dim: pauli("x"),
    "sigma_y": lambda dim: pauli("y"),
    "sigma_z": lambda dim: pauli("z"),
    "sigma_minus": lambda dim: Operator(pauli("x").entries - 1j * pauli("y").entries),
    "annihilation": annihilation,
}


class ConfigError(ValueError):
    """Malformed configuration; message carries the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def _need_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _need_number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(path, f"expected a number, got {node!r}")
    value = float(node)
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {node!r}")
    return value


def _need_int(node, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(path, f"expected an integer, got {node!r}")
    return node


def _complex_scalar(node, path: str) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(_need_number(node, path))
    if isinstance(node, list) and len(node) == 2:
        return complex(_need_number(node[0], path), _need_number(node[1], path))
    raise ConfigError(path, f"expected a number or [re, im] pair, got {node!r}")


def _matrix(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ConfigError(path, "expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise ConfigError(f"{path}[{i}]", "expected a list of entries")
        rows.append([_complex_scalar(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(path, "rows have unequal lengths")
    return np.array(rows, dtype=complex)


def _constant_real_shift(shift_values: tuple) -> Optional[float]:
    """The one shift of shift_values when it is a constant whose imaginary
    part is at most 1e-15, as a real number; else None."""
    if len(shift_values) != 1 or not isinstance(shift_values[0], complex):
        return None
    value = shift_values[0]
    return value.real if abs(value.imag) <= 1e-15 else None


def _pairs(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


@dataclasses.dataclass(frozen=True)
class RunSettings:
    """Numerical run parameters; unused fields stay None and each command
    checks for the ones it needs."""

    total_time: Optional[float] = None
    steps: int = DEFAULT_SUBSTEPS
    delta_t: Optional[float] = None
    n_trajectories: Optional[int] = None
    seed: int = 0

    def require(self, field: str, command: str):
        value = getattr(self, field)
        if value is None:
            key = "T" if field == "total_time" else field
            raise ConfigError(f"run.{key}", f"required by the {command} command")
        return value


@dataclasses.dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple[float, ...]


@dataclasses.dataclass(frozen=True, eq=False)
class SweepGrid:
    """Every point of a sweep, the first axis varying slowest: its
    assignment of the swept parameters, and as arrays its coupling
    strength, its (M, n) channel shifts on cells of width shift_cell (n = 1
    and shift_cell None for constants; shifts None when no point is
    shifted) and its initial state."""

    assignments: tuple[dict, ...]
    strengths: np.ndarray
    shifts: Optional[np.ndarray]
    shift_cell: Optional[float]
    states: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class ScenarioConfig:
    model: LindbladModel
    shifts: Optional[ShiftSet]
    initial_state: PureState
    run: RunSettings
    sweep: tuple[SweepAxis, ...]
    # How each piece was given, for serialization and closed-form detection.
    hamiltonian_kind: str = "matrix"
    omega: Optional[float] = None
    channel_kinds: tuple[str, ...] = ()
    initial_angles: Optional[BlochAngles] = None
    shift_values: tuple = ()

    def sweep_grid(self) -> SweepGrid:
        """The sweep's points, or the one point of an unswept scenario, as
        arrays; the one expansion of a sweep."""
        return self._grid(self.sweep)

    def _grid(self, axes: tuple[SweepAxis, ...]) -> SweepGrid:
        combos = list(itertools.product(*(range(len(axis.values)) for axis in axes)))
        count = len(combos)
        # index[:, a] is each point's position on axis a.
        index = np.array(combos, dtype=np.intp).reshape(count, len(axes))
        strengths = np.full(count, self.model.strength)
        shifts, cell = None, None
        if self.shifts is not None:
            shifts, cell = stack_shifts([self.shifts])
            shifts = np.broadcast_to(shifts, (count, *shifts.shape[1:]))
        states = np.broadcast_to(self.initial_state.amplitudes, (count, self.model.dim))
        for a, axis in enumerate(axes):
            picked = index[:, a]
            if axis.name == "lambda":
                strengths = np.array([float(v) for v in axis.values])[picked]
            elif axis.name == "f":
                values = np.array([complex(v) for v in axis.values])[picked]
                shape = (count, len(self.model.lindblads), 1)
                shifts, cell = np.broadcast_to(values[:, np.newaxis, np.newaxis], shape), None
            elif axis.name == "theta0":
                if self.initial_angles is None:
                    raise ConfigError(
                        "sweep.theta0", "needs an initial_state of theta and phi, not amplitudes"
                    )
                phi = self.initial_angles.phi
                rows = [bloch_state(BlochAngles(float(v), phi)).amplitudes for v in axis.values]
                states = np.array(rows)[picked]
            else:
                raise ConfigError(f"sweep.{axis.name}", f"unknown swept parameter {axis.name!r}")
        assignments = tuple(
            {axis.name: axis.values[i] for axis, i in zip(axes, combo)} for combo in combos
        )
        return SweepGrid(assignments, strengths, shifts, cell, states)

    def _pinned(self, grid: SweepGrid, p: int) -> "ScenarioConfig":
        """The config of point p of grid: its swept scalars pinned."""
        point = grid.assignments[p]
        cfg = self
        if "lambda" in point:
            model = LindbladModel(
                self.model.hamiltonian, self.model.lindblads, float(grid.strengths[p])
            )
            cfg = dataclasses.replace(cfg, model=model)
        if "f" in point:
            values = tuple(complex(v) for v in grid.shifts[p, :, 0])
            cfg = dataclasses.replace(
                cfg, shifts=ShiftSet.constants(values), shift_values=values
            )
        if "theta0" in point:
            angles = BlochAngles(float(point["theta0"]), self.initial_angles.phi)
            cfg = dataclasses.replace(
                cfg, initial_state=PureState(grid.states[p]), initial_angles=angles
            )
        return cfg

    def at_point(self, **assignments) -> "ScenarioConfig":
        """New config with swept scalars pinned to concrete values: the one
        point of a grid of those values."""
        axes = tuple(SweepAxis(name, (value,)) for name, value in assignments.items())
        return self._pinned(self._grid(axes), 0)

    def sweep_points(self):
        """Yield (assignment dict, pinned config) over the sweep grid, a view
        of `sweep_grid`."""
        grid = self.sweep_grid()
        for p, point in enumerate(grid.assignments):
            yield point, self._pinned(grid, p)

    def dephasing_params(self, point: Optional[dict] = None) -> Optional[DephasingParams]:
        """The scenario, at the sweep point whose assignment dict is point
        if given, as closed-form dephasing parameters, when it is one:
        precession Hamiltonian, single sigma_z channel, Bloch-angle initial
        state, and at most one real constant shift."""
        if self.hamiltonian_kind != "precession" or self.omega is None:
            return None
        if self.channel_kinds != ("sigma_z",) or self.initial_angles is None:
            return None
        point = point or {}
        if "f" in point:
            f = _constant_real_shift((complex(point["f"]),))
        else:
            f = 0.0 if self.shifts is None else _constant_real_shift(self.shift_values)
        if f is None:
            return None
        theta = self.initial_angles.theta
        if "theta0" in point:
            theta = BlochAngles(float(point["theta0"]), self.initial_angles.phi).theta
        return DephasingParams(
            omega=self.omega,
            strength=float(point.get("lambda", self.model.strength)),
            shift=f,
            theta0=theta,
            phi0=self.initial_angles.phi,
        )

    def to_mapping(self) -> dict:
        model: dict = {"dim": self.model.dim}
        if self.hamiltonian_kind == "precession":
            model["hamiltonian"] = {"preset": "precession", "omega": self.omega}
        else:
            model["hamiltonian"] = {
                "matrix": _pairs(self.model.hamiltonian.values[0].entries)
            }
        chans = []
        for kind, sched in zip(self.channel_kinds, self.model.lindblads):
            if kind == "matrix":
                chans.append({"matrix": _pairs(sched.values[0].entries)})
            else:
                chans.append(kind)
        model["lindblads"] = chans
        model["lambda"] = self.model.strength
        out: dict = {"model": model}
        if self.shifts is not None:
            serialized = []
            for value in self.shift_values:
                if isinstance(value, complex):
                    serialized.append([value.real, value.imag])
                else:
                    cell, values = value
                    serialized.append(
                        {"cell": cell, "values": [[v.real, v.imag] for v in values]}
                    )
            out["shifts"] = serialized
        if self.initial_angles is not None:
            out["initial_state"] = {
                "theta": self.initial_angles.theta,
                "phi": self.initial_angles.phi,
            }
        else:
            out["initial_state"] = {
                "amplitudes": [
                    [float(a.real), float(a.imag)] for a in self.initial_state.amplitudes
                ]
            }
        run: dict = {"steps": self.run.steps, "seed": self.run.seed}
        if self.run.total_time is not None:
            run["T"] = self.run.total_time
        if self.run.delta_t is not None:
            run["delta_t"] = self.run.delta_t
        if self.run.n_trajectories is not None:
            run["n_trajectories"] = self.run.n_trajectories
        out["run"] = run
        if self.sweep:
            out["sweep"] = {axis.name: list(axis.values) for axis in self.sweep}
        return out


def _parse_hamiltonian(node, dim: int) -> tuple[OperatorSchedule, str, Optional[float]]:
    section = _need_mapping(node, "model.hamiltonian")
    if "preset" in section:
        name = section["preset"]
        if name != "precession":
            raise ConfigError("model.hamiltonian.preset", f"unknown preset {name!r}")
        if dim != 2:
            raise ConfigError("model.hamiltonian", "precession preset needs dim = 2")
        omega = _need_number(section.get("omega"), "model.hamiltonian.omega")
        ham = Operator(np.array([[0.5 * omega, 0], [0, -0.5 * omega]], dtype=complex))
        return OperatorSchedule.constant(ham), "precession", omega
    if "matrix" in section:
        mat = _matrix(section["matrix"], "model.hamiltonian.matrix")
        if mat.shape != (dim, dim):
            raise ConfigError("model.hamiltonian.matrix", f"expected {dim}x{dim}")
        return OperatorSchedule.constant(Operator(mat)), "matrix", None
    raise ConfigError("model.hamiltonian", "needs either 'preset' or 'matrix'")


def _parse_channel(node, dim: int, path: str) -> tuple[OperatorSchedule, str]:
    if isinstance(node, str):
        node = {"preset": node}
    section = _need_mapping(node, path)
    if "preset" in section:
        name = section["preset"]
        builder = _CHANNEL_PRESETS.get(name)
        if builder is None:
            known = ", ".join(sorted(_CHANNEL_PRESETS))
            raise ConfigError(f"{path}.preset", f"unknown preset {name!r} (known: {known})")
        op = builder(dim)
        if op.dim != dim:
            raise ConfigError(path, f"preset {name!r} has dimension {op.dim}, model has {dim}")
        return OperatorSchedule.constant(op), name
    if "matrix" in section:
        mat = _matrix(section["matrix"], f"{path}.matrix")
        if mat.shape != (dim, dim):
            raise ConfigError(f"{path}.matrix", f"expected {dim}x{dim}")
        return OperatorSchedule.constant(Operator(mat)), "matrix"
    raise ConfigError(path, "needs a preset name or a 'matrix' literal")


def _parse_shift(node, path: str):
    """Returns (ScalarSchedule, canonical value) where canonical is a complex
    constant or a (cell, values tuple) pair."""
    if isinstance(node, dict):
        cell = _need_number(node.get("cell"), f"{path}.cell")
        if cell <= 0:
            raise ConfigError(f"{path}.cell", "cell width must be positive")
        raw = node.get("values")
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values", "expected a non-empty list")
        values = tuple(
            _complex_scalar(v, f"{path}.values[{i}]") for i, v in enumerate(raw)
        )
        return ScalarSchedule.piecewise(values, cell), (cell, values)
    value = _complex_scalar(node, path)
    return ScalarSchedule.constant(value), value


def _parse_initial(node) -> tuple[PureState, Optional[BlochAngles]]:
    section = _need_mapping(node, "initial_state")
    if "amplitudes" in section:
        raw = section["amplitudes"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("initial_state.amplitudes", "expected a non-empty list")
        amps = np.array(
            [_complex_scalar(v, f"initial_state.amplitudes[{i}]") for i, v in enumerate(raw)]
        )
        if not amps.any():
            raise ConfigError("initial_state.amplitudes", "state vector is zero")
        # Keep already-normalized input bit-exact so serialization round-trips.
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
            amps = unit_vector(amps)
        return PureState(amps), None
    if "theta" in section:
        theta = _need_number(section["theta"], "initial_state.theta")
        phi = _need_number(section.get("phi", 0.0), "initial_state.phi")
        try:
            angles = BlochAngles(theta, phi)
        except ValueError as exc:
            raise ConfigError("initial_state.theta", str(exc)) from None
        return bloch_state(angles), angles
    raise ConfigError("initial_state", "needs 'theta'/'phi' or 'amplitudes'")


def _parse_run(node) -> RunSettings:
    if node is None:
        return RunSettings()
    section = _need_mapping(node, "run")
    known = {"T", "steps", "delta_t", "n_trajectories", "seed"}
    for key in section:
        if key not in known:
            raise ConfigError(f"run.{key}", "unknown run setting")
    kwargs = {}
    if "T" in section:
        kwargs["total_time"] = _need_number(section["T"], "run.T")
        if kwargs["total_time"] < 0:
            raise ConfigError("run.T", "must be >= 0")
    if "steps" in section:
        kwargs["steps"] = _need_int(section["steps"], "run.steps")
        if kwargs["steps"] < 1:
            raise ConfigError("run.steps", "must be >= 1")
    if "delta_t" in section:
        kwargs["delta_t"] = _need_number(section["delta_t"], "run.delta_t")
        if kwargs["delta_t"] <= 0:
            raise ConfigError("run.delta_t", "must be positive")
    if "n_trajectories" in section:
        kwargs["n_trajectories"] = _need_int(section["n_trajectories"], "run.n_trajectories")
        if kwargs["n_trajectories"] < 1:
            raise ConfigError("run.n_trajectories", "must be >= 1")
    if "seed" in section:
        kwargs["seed"] = _need_int(section["seed"], "run.seed")
        if kwargs["seed"] < 0:
            raise ConfigError("run.seed", "must be >= 0")
    return RunSettings(**kwargs)


def _parse_sweep(node) -> tuple[SweepAxis, ...]:
    if node is None:
        return ()
    section = _need_mapping(node, "sweep")
    if len(section) > 2:
        raise ConfigError("sweep", "at most two swept parameters are supported")
    axes = []
    for name, raw in section.items():
        if name not in SWEEPABLE:
            raise ConfigError(
                f"sweep.{name}", f"not sweepable (choose from {', '.join(SWEEPABLE)})"
            )
        path = f"sweep.{name}"
        if isinstance(raw, dict):
            start = _need_number(raw.get("start"), f"{path}.start")
            stop = _need_number(raw.get("stop"), f"{path}.stop")
            count = _need_int(raw.get("count"), f"{path}.count")
            if count < 1:
                raise ConfigError(f"{path}.count", "must be >= 1")
            values = tuple(float(v) for v in np.linspace(start, stop, count))
        elif isinstance(raw, list) and raw:
            values = tuple(_need_number(v, f"{path}[{i}]") for i, v in enumerate(raw))
        else:
            raise ConfigError(path, "expected a value list or {start, stop, count}")
        axes.append(SweepAxis(name, values))
    return tuple(axes)


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(source, f"not valid YAML: {exc}") from None
    doc = _need_mapping(doc, source)
    for key in doc:
        if key not in {"model", "shifts", "initial_state", "run", "sweep"}:
            raise ConfigError(str(key), "unknown top-level section")

    model_node = _need_mapping(doc.get("model"), "model")
    dim = _need_int(model_node.get("dim"), "model.dim")
    if dim < 2:
        raise ConfigError("model.dim", "must be >= 2")
    ham, ham_kind, omega = _parse_hamiltonian(model_node.get("hamiltonian"), dim)
    raw_chans = model_node.get("lindblads")
    if not isinstance(raw_chans, list):
        raise ConfigError("model.lindblads", "expected a list of channels")
    chans = []
    kinds = []
    for i, entry in enumerate(raw_chans):
        sched, kind = _parse_channel(entry, dim, f"model.lindblads[{i}]")
        chans.append(sched)
        kinds.append(kind)
    strength = _need_number(model_node.get("lambda"), "model.lambda")
    if strength < 0:
        raise ConfigError("model.lambda", "must be >= 0")
    try:
        model = LindbladModel(ham, tuple(chans), strength)
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from None

    shifts = None
    shift_values: tuple = ()
    if doc.get("shifts") is not None:
        raw_shifts = doc["shifts"]
        if not isinstance(raw_shifts, list):
            raise ConfigError("shifts", "expected a list, one entry per channel")
        if len(raw_shifts) != len(chans):
            raise ConfigError(
                "shifts", f"{len(raw_shifts)} entries for {len(chans)} channels"
            )
        parsed = [_parse_shift(v, f"shifts[{i}]") for i, v in enumerate(raw_shifts)]
        shifts = ShiftSet(tuple(s for s, _ in parsed))
        shift_values = tuple(v for _, v in parsed)

    state, angles = _parse_initial(doc.get("initial_state"))
    if state.dim != dim:
        raise ConfigError("initial_state", f"dimension {state.dim} does not match model")
    run = _parse_run(doc.get("run"))
    sweep = _parse_sweep(doc.get("sweep"))
    if not chans and any(axis.name == "f" for axis in sweep):
        # Every point would be the same unshifted model.
        raise ConfigError("sweep.f", "the model has no channel to shift")
    return ScenarioConfig(
        model=model,
        shifts=shifts,
        initial_state=state,
        run=run,
        sweep=sweep,
        hamiltonian_kind=ham_kind,
        omega=omega,
        channel_kinds=tuple(kinds),
        initial_angles=angles,
        shift_values=shift_values,
    )


def serialize_config(config: ScenarioConfig) -> str:
    return yaml.dump(config.to_mapping(), Dumper=_DUMPER, sort_keys=True)


def preset_names() -> list[str]:
    root = resources.files("trajphase") / "presets"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_config(path_or_preset: Union[str, Path]) -> ScenarioConfig:
    """Load a scenario from a YAML file, or from a bundled preset when the
    argument names one (e.g. 'fig1') and no such file exists."""
    path = Path(path_or_preset)
    if path.is_file():
        return parse_config(path.read_text(), source=str(path))
    name = str(path_or_preset)
    candidate = resources.files("trajphase") / "presets" / f"{name}.yaml"
    if candidate.is_file():
        return parse_config(candidate.read_text(), source=f"preset:{name}")
    raise ConfigError(
        str(path_or_preset),
        f"no such config file or bundled preset (presets: {', '.join(preset_names())})",
    )
