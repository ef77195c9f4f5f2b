"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A closed loop with one caller: the workload's CLI command runs through
`trajphase.cli.main([...])`, again and again, until S seconds have passed.
Every call's output is graded (see workloads.py) and must be byte-identical
to the first call's. A fixed reference loop runs before each call, and
wall_rel is the calls' total time over the loops' total time. Fresh
interpreters, spread over the run, time `import trajphase` plus
`load_config` of the scenario (setup_s).

With --trace 0 the last line holds the end-to-end metrics; with --trace 1,
calls alternate untraced and traced, and it holds the per-layer metrics.
The exit status is 1 when a gate failed, 2 on bad arguments or a checkout
without src/trajphase. `--workload all` runs each workload in a fresh
process of its own and prints one table.

Files go to .bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import common

SETUP_SAMPLES = 5
# Times import plus config parse in a fresh interpreter; prints seconds.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trajphase
trajphase.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""
WORKLOAD_NAMES = ("nojump_sweep", "qsd_shift_pair", "jump_piecewise", "hidden_shift_check")
END_TO_END_UNITS = {
    "wall_rel": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
REFERENCE_STEPS = 8000


def reference_seconds() -> float:
    """Time of a fixed loop of small NumPy operations on arrays shaped like
    the program's: one qubit state, as in the no-jump and master-equation
    loops, and a batch of 256, as in the ensemble kernels.

    The shared host's speed drifts by up to 2x for seconds at a time. Total
    call time over total time of the reference loops run between the calls
    keeps the program's cost and drops most of that drift.
    """
    import numpy as np

    c, s = np.cos(0.01), np.sin(0.01)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    state = np.array([1.0, 0.0], dtype=complex)
    batch = np.ones((256, 2), dtype=complex)
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        state = u @ state
        batch = batch @ u.T
        batch /= np.linalg.norm(batch, axis=1)[:, None]
    return time.perf_counter() - start


@dataclasses.dataclass
class Call:
    code: Optional[int]
    wall: float
    text: Optional[str]
    ops: list
    warnings: list[str]
    problem: str = ""

    @property
    def digest(self) -> Optional[str]:
        return None if self.text is None else hashlib.sha256(self.text.encode()).hexdigest()


def prepare(name: str, seed: int, tiny: bool, run_dir: Path):
    """(workload, scenario, path of its YAML) in a fresh run_dir."""
    import workloads
    import yaml

    workload = workloads.WORKLOADS[name]
    scenario = workload.build(seed, tiny)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    path = run_dir / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario.config, sort_keys=False))
    return workload, scenario, path


def call_once(workload, scenario, scenario_path: Path, seed: int, tracer=None) -> Call:
    """One CLI call, timed from main() entry until its files are written, then graded."""
    from trajphase.cli import main as cli_main

    out_path = scenario_path.with_name("output")
    out_path.unlink(missing_ok=True)
    argv = [scenario.command, "--config", str(scenario_path), "--out", str(out_path)]
    argv += ["--seed", str(seed), "--quiet"]
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli_main(argv)
        else:
            tracer.install()
            try:
                code = tracer.call("cli.main", cli_main, argv)
            finally:
                tracer.uninstall()
    except Exception:
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - start

    text = out_path.read_text() if code == 0 else None
    warnings = []
    if text is not None:
        warnings = json.loads(Path(f"{out_path}.report.json").read_text())["warnings"]
    try:
        return Call(code, wall, text, workload.check(scenario, text), warnings)
    except (KeyError, ValueError, IndexError) as exc:
        return Call(code, wall, text, workload.check(scenario, None), warnings, repr(exc))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_time(scenario_path: Path) -> float:
    """Seconds a fresh interpreter takes to import trajphase and load_config."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(common.SRC), str(scenario_path)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    common.load_trajphase()
    import tracing

    run_dir = common.OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workload, scenario, scenario_path = prepare(name, seed, False, run_dir)
    # The first interpreter may write bytecode caches; it is not counted.
    _setup_time(scenario_path)
    setup: list[float] = []

    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}
    references = []
    digests = set()
    attempted = failed = 0
    failures: list[str] = []
    warnings: set[str] = set()
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        # Set-up samples are spread over the run, like the calls.
        if len(setup) < SETUP_SAMPLES and time.perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(_setup_time(scenario_path))
        traced = trace and index % 2 == 1
        if traced:
            tracer.rep = index
        if not traced:
            references.append(reference_seconds())
        call = call_once(workload, scenario, scenario_path, seed, tracer if traced else None)
        walls[traced].append(call.wall)
        if call.problem:
            failures.append(f"call {index}: unreadable output: {call.problem}")
        if call.text is not None:
            digests.add(call.digest)
            warnings.update(call.warnings)
        attempted += len(call.ops)
        for op in call.ops:
            if not op.ok:
                failed += 1
                failures.append(f"call {index} (exit {call.code}): {op.name}: {op.detail}")
        index += 1
        if time.perf_counter() >= deadline and walls[False] and (walls[True] or not trace):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_time(scenario_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    identical = len(digests) == 1
    correct = failed == 0 and identical
    wall_s = statistics.median(walls[False])
    wall_rel = sum(walls[False]) / sum(references)
    if trace:
        metrics = tracing.layer_metrics(
            tracer.spans, len(warnings), walls[True], walls[False], references, scenario.work
        )
        units = tracing.UNITS
        (run_dir / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        metrics = {
            "wall_rel": wall_rel,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "output_sha256": sorted(digests),
        "calls": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "wall_s_samples": walls[False],
        "reference_s_samples": references,
        "traced_wall_s_samples": walls[True],
        "setup_s_samples": setup,
        "work": {"unit": scenario.unit, "per_call": scenario.work},
        "warnings": sorted(warnings),
        "environment": common.environment(),
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2))

    for line in failures[:20]:
        print(f"FAIL {line}")
    if not identical:
        print(f"FAIL calls of one seed gave different outputs: {sorted(digests)}")
    print(f"workload {name} seed {seed}: {scenario.work} {scenario.unit} per call")
    print(f"samples: {len(walls[False])} untraced calls, {len(walls[True])} traced, {len(setup)} set-ups")
    print(
        f"untraced calls: wall_s median {wall_s:.4g} s, "
        f"{scenario.work / wall_s:.6g} {scenario.unit} per s; "
        f"p70 {tracing.quantile(walls[False], 0.7):.4g} s; wall_rel {wall_rel:.4g} ref"
    )
    print(f"operations: {attempted} attempted, {failed} failed")
    print(f"output sha256: {', '.join(sorted(digests))}")
    print(f"warnings: {sorted(warnings)}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:.6g} {units[key]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process; one table; non-zero if any gate failed."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("FAIL", "samples")):
                print(f"{name}: {line}")
        if done.returncode != 0:
            status = 1
            sys.stderr.write(done.stderr)
        try:
            rows.append((name, json.loads(lines[-1])))
        except (IndexError, ValueError):
            rows.append((name, None))
    print(f"{'workload':20s}" + "".join(f"{k:>16s}" for k in END_TO_END_UNITS) + "  failed/attempted")
    for name, result in rows:
        if result is None:
            print(f"{name:20s} no result")
            continue
        cells = "".join(
            f"{result['metrics'][k]['value']:>11.5g} {END_TO_END_UNITS[k]:>4s}" for k in END_TO_END_UNITS
        )
        print(f"{name:20s}{cells}  {result['failed']}/{result['attempted']}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    common.pin_threads()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
