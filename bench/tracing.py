"""Outside-in tracing: spans from wrappers around trajphase's public names.

`Tracer.install` replaces each name in PATCHES, as the calling module sees
it, with a wrapper that records a span (name, caller, start, end, parent)
and a few counts read from the arguments or the result. `uninstall` puts
the originals back. Spans stay in memory until the run writes them out.

Only module boundaries are visible from here. The per-step kernels, noise
draws and moment reductions inside `_ensemble_chunk` / `_qsd_chunk` and the
RK4 loop inside `evolve_density` have no span of their own; they show up as
the self time of the chunk and evolve_density spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from typing import Callable, Optional

# (calling module, attribute, span name). A span is named after the module
# that defines the function, i.e. its layer.
PATCHES = [
    ("cli", "load_config", "config.load_config"),
    ("cli", "no_jump_geometric_phase", "jump.no_jump_geometric_phase"),
    ("cli", "average_jump_ensemble", "jump.average_jump_ensemble"),
    ("cli", "averaged_geometric_phase", "qsd.averaged_geometric_phase"),
    ("cli", "evolve_density", "lindblad.evolve_density"),
    ("cli", "apply_shift", "lindblad.apply_shift"),
    ("cli", "shifted_hamiltonian", "lindblad.shifted_hamiltonian"),
    ("cli", "shift_is_hidden", "lindblad.shift_is_hidden"),
    ("jump", "propagate_no_jump", "jump.propagate_no_jump"),
    ("jump", "apply_shift", "lindblad.apply_shift"),
    ("jump", "shifted_hamiltonian", "lindblad.shifted_hamiltonian"),
    ("jump", "shift_is_hidden", "lindblad.shift_is_hidden"),
    ("jump", "matrix_exponential", "operators.matrix_exponential"),
    ("jump", "combine_schedules", "operators.combine_schedules"),
    ("jump", "trajectory_seeds", "_ensemble.trajectory_seeds"),
    ("jump", "map_ordered", "_ensemble.map_ordered"),
    ("qsd", "evolve_density", "lindblad.evolve_density"),
    ("qsd", "apply_shift", "lindblad.apply_shift"),
    ("qsd", "shifted_hamiltonian", "lindblad.shifted_hamiltonian"),
    ("qsd", "trajectory_seeds", "_ensemble.trajectory_seeds"),
    ("qsd", "map_ordered", "_ensemble.map_ordered"),
    ("lindblad", "combine_schedules", "operators.combine_schedules"),
]


def _no_jump_counts(fn, args, kwargs, result) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"steps": bound.arguments["steps"], "grid_steps": result.grid_steps}


def _chunk_counts(fn, args, kwargs, result) -> dict:
    # Chunk jobs are (model, shifts, vec, total_time, delta_t, streams).
    model, _, _, total_time, delta_t, streams = args[0]
    steps = round(total_time / delta_t)
    channels = len(model.lindblads)
    return {
        "traj_steps": len(streams) * steps,
        "noise_bytes": len(streams) * steps * channels * 16,
    }


COUNTS = {
    "jump.no_jump_geometric_phase": _no_jump_counts,
    "jump.propagate_no_jump": lambda fn, a, kw, r: {"steps": len(r.times) - 1},
    "lindblad.evolve_density": lambda fn, a, kw, r: {"steps": len(r) - 1},
    "jump.average_jump_ensemble": lambda fn, a, kw, r: {
        "traj_steps": r.n_trajectories * (len(r.times) - 1),
        "jumps": int(r.jump_counts.sum()),
    },
    "qsd.averaged_geometric_phase": lambda fn, a, kw, r: {
        "n_used": r.n_used,
        "n_excluded": r.n_excluded,
    },
    "jump.chunk": _chunk_counts,
    "qsd.chunk": _chunk_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.rep = 0

    def _wrap(self, name: str, caller: str, fn: Callable) -> Callable:
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "caller": caller,
                "parent": self._stack[-1] if self._stack else None,
                "rep": self.rep,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(fn, args, kwargs, result))
            return result

        return traced

    def _wrap_map(self, caller: str, fn: Callable) -> Callable:
        # Time each chunk function handed to map_ordered, too. Traced runs
        # use one worker, so the wrapped chunk function is never pickled.
        def map_ordered(chunk_fn, jobs):
            return fn(self._wrap(f"{caller}.chunk", caller, chunk_fn), jobs)

        return self._wrap("_ensemble.map_ordered", caller, map_ordered)

    def call(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span of its own, e.g. cli.main."""
        return self._wrap(name, "bench", fn)(*args)

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(f"trajphase.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if attr == "map_ordered":
                wrapper = self._wrap_map(module_name, original)
            else:
                wrapper = self._wrap(name, module_name, original)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _children(spans: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            out.setdefault(span["parent"], []).append(span)
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, total duration minus the time its child spans cover."""
    kids = _children(spans)
    out: dict[str, float] = {}
    for span in spans:
        own = _dur(span) - sum(_dur(c) for c in kids.get(span["id"], ()))
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def dominant(spans: list[dict]) -> str:
    """Span name with the largest self time."""
    times = self_times(spans)
    return max(times, key=times.get)


def coverage(spans: list[dict]) -> float:
    """Share of cli.main covered by its child spans."""
    kids = _children(spans)
    mains = [s for s in spans if s["name"] == "cli.main"]
    total = sum(_dur(s) for s in mains)
    covered = sum(_dur(c) for s in mains for c in kids.get(s["id"], ()))
    return covered / total


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _rep_metrics(spans: list[dict]) -> dict[str, float]:
    """Times and counts of one traced CLI call."""
    kids = _children(spans)

    def named(name: str, caller: Optional[str] = None) -> list[dict]:
        return [s for s in spans if s["name"] == name and caller in (None, s["caller"])]

    def total(name: str, caller: Optional[str] = None) -> float:
        return sum(_dur(s) for s in named(name, caller))

    def summed(name: str, key: str) -> int:
        return sum(s[key] for s in named(name))

    nojump = named("jump.no_jump_geometric_phase")
    propagate_in_phase = sum(
        _dur(c) for s in nojump for c in kids.get(s["id"], ()) if c["name"] == "jump.propagate_no_jump"
    )
    jump_chunks = [_dur(s) for s in named("jump.chunk")]
    qsd_chunks = [_dur(s) for s in named("qsd.chunk")]
    qsd_ensemble = total("_ensemble.map_ordered", "qsd") + total("_ensemble.trajectory_seeds", "qsd")
    jump_traj_steps = summed("jump.average_jump_ensemble", "traj_steps")
    qsd_traj_steps = summed("qsd.chunk", "traj_steps")
    rho_steps = summed("lindblad.evolve_density", "steps")
    nojump_steps = summed("jump.propagate_no_jump", "steps")
    n_used = summed("qsd.averaged_geometric_phase", "n_used")
    n_excluded = summed("qsd.averaged_geometric_phase", "n_excluded")

    def per(value: float, count: int, scale: float) -> float:
        return value / count * scale if count else 0.0

    return {
        "config.load_config.s": total("config.load_config"),
        "cli.main.self_s": self_times(spans).get("cli.main", 0.0),
        "jump.no_jump_geometric_phase.calls": len(nojump),
        "jump.propagate_no_jump.s": total("jump.propagate_no_jump"),
        "jump.propagate_no_jump.ns_per_step": per(total("jump.propagate_no_jump"), nojump_steps, 1e9),
        "jump.phase_post.s": sum(_dur(s) for s in nojump) - propagate_in_phase,
        "jump.grid_refinements": sum(round(math.log2(s["grid_steps"] / s["steps"])) for s in nojump),
        "jump.average_jump_ensemble.s": total("jump.average_jump_ensemble"),
        "jump.ensemble.ns_per_traj_step": per(total("jump.average_jump_ensemble"), jump_traj_steps, 1e9),
        "jump.chunks": len(jump_chunks),
        "jump.chunk.p50_s": quantile(jump_chunks, 0.5),
        "jump.chunk.max_s": max(jump_chunks, default=0.0),
        "jump.jumps_total": summed("jump.average_jump_ensemble", "jumps"),
        "qsd.averaged_geometric_phase.s": total("qsd.averaged_geometric_phase"),
        "qsd.ensemble.s": qsd_ensemble,
        "qsd.ensemble.ns_per_traj_step": per(qsd_ensemble, qsd_traj_steps, 1e9),
        "qsd.chunks": len(qsd_chunks),
        "qsd.chunk.p50_s": quantile(qsd_chunks, 0.5),
        "qsd.chunk.max_s": max(qsd_chunks, default=0.0),
        "qsd.density_term.s": total("qsd.averaged_geometric_phase") - qsd_ensemble,
        "qsd.n_excluded": n_excluded,
        "qsd.used_frac": per(n_used, n_used + n_excluded, 1.0),
        "lindblad.evolve_density.s": total("lindblad.evolve_density"),
        "lindblad.evolve_density.us_per_step": per(total("lindblad.evolve_density"), rho_steps, 1e6),
        "lindblad.apply_shift.calls": len(named("lindblad.apply_shift")),
        "lindblad.shifted_hamiltonian.calls": len(named("lindblad.shifted_hamiltonian")),
        "lindblad.shift_is_hidden.s": total("lindblad.shift_is_hidden"),
        "operators.matrix_exponential.calls": len(named("operators.matrix_exponential")),
        "operators.matrix_exponential.s": total("operators.matrix_exponential"),
        "operators.combine_schedules.calls": len(named("operators.combine_schedules")),
        "ensemble.trajectory_seeds.s": total("_ensemble.trajectory_seeds"),
        "ensemble.noise_bytes_per_chunk": max(
            (s["noise_bytes"] for s in spans if s["name"].endswith(".chunk")), default=0
        ),
        "count.traj_steps": jump_traj_steps + qsd_traj_steps,
        "count.rho_steps": rho_steps,
        "count.nojump_steps": nojump_steps,
        "trace.coverage_frac": coverage(spans),
    }


# Per-layer metric units; counts repeat exactly from call to call.
UNITS = {
    "config.load_config.s": "s",
    "cli.main.self_s": "s",
    "cli.warnings": "count",
    "jump.no_jump_geometric_phase.calls": "count",
    "jump.no_jump_geometric_phase.p50_ms": "ms",
    "jump.no_jump_geometric_phase.p95_ms": "ms",
    "jump.propagate_no_jump.s": "s",
    "jump.propagate_no_jump.ns_per_step": "ns",
    "jump.phase_post.s": "s",
    "jump.grid_refinements": "count",
    "jump.average_jump_ensemble.s": "s",
    "jump.ensemble.ns_per_traj_step": "ns",
    "jump.chunks": "count",
    "jump.chunk.p50_s": "s",
    "jump.chunk.max_s": "s",
    "jump.jumps_total": "count",
    "qsd.averaged_geometric_phase.s": "s",
    "qsd.ensemble.s": "s",
    "qsd.ensemble.ns_per_traj_step": "ns",
    "qsd.chunks": "count",
    "qsd.chunk.p50_s": "s",
    "qsd.chunk.max_s": "s",
    "qsd.density_term.s": "s",
    "qsd.n_excluded": "count",
    "qsd.used_frac": "frac",
    "lindblad.evolve_density.s": "s",
    "lindblad.evolve_density.us_per_step": "us",
    "lindblad.apply_shift.calls": "count",
    "lindblad.shifted_hamiltonian.calls": "count",
    "lindblad.shift_is_hidden.s": "s",
    "operators.matrix_exponential.calls": "count",
    "operators.matrix_exponential.s": "s",
    "operators.combine_schedules.calls": "count",
    "ensemble.trajectory_seeds.s": "s",
    "ensemble.noise_bytes_per_chunk": "B",
    "count.traj_steps": "count",
    "count.rho_steps": "count",
    "count.nojump_steps": "count",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "bench.wall_s": "s",
    "bench.work_per_s": "1/s",
    "bench.reference_s": "s",
}


def layer_metrics(
    spans: list[dict],
    warnings: int,
    traced_walls: list[float],
    untraced_walls: list[float],
    references: list[float],
    work: int,
) -> dict[str, float]:
    """Per-layer metrics over all traced calls of a run.

    Times are medians over calls; counts come from the last call (they
    repeat exactly); the no-jump point percentiles pool every point. The
    bench.* entries are raw wall time, throughput and reference-loop time
    of the run's untraced calls.
    """
    by_rep: dict[int, list[dict]] = {}
    for span in spans:
        by_rep.setdefault(span["rep"], []).append(span)
    per_rep = [_rep_metrics(group) for group in by_rep.values()]
    out = {}
    for key in per_rep[-1]:
        if UNITS[key] in ("count", "B"):
            out[key] = per_rep[-1][key]
        else:
            out[key] = statistics.median(m[key] for m in per_rep)
    points = [
        1e3 * _dur(s) for s in spans if s["name"] == "jump.no_jump_geometric_phase"
    ]
    out["jump.no_jump_geometric_phase.p50_ms"] = quantile(points, 0.5)
    out["jump.no_jump_geometric_phase.p95_ms"] = quantile(points, 0.95)
    out["cli.warnings"] = warnings
    wall_s = statistics.median(untraced_walls)
    out["trace.overhead_frac"] = statistics.median(traced_walls) / wall_s - 1.0
    out["bench.wall_s"] = wall_s
    out["bench.work_per_s"] = work / wall_s
    out["bench.reference_s"] = statistics.median(references)
    return {key: out[key] for key in UNITS}
