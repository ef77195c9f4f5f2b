"""Determinism pairs: a CLI command's output bytes do not depend on the BLAS
thread count or on the ensemble worker count.

Each row of ROWS is one command on one scenario and names the variables its
output must not depend on. For each setting, a variable at 1 and at 2, one
fresh interpreter runs every command of that setting through
`trajphase.cli.main`: the BLAS reads OPENBLAS_NUM_THREADS once, when it
loads. Each row and variable is then a test of its own, with an id such as
`OPENBLAS_NUM_THREADS:evolve:hidden-shift`.

Scenarios are the YAML files in tests/contract/, the bundled fig1 preset,
and the bench workloads as bench/workloads.py builds them, at seeds 0 and 7,
full and tiny. Run the table alone with `pytest tests/test_contract.py`.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Union

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = Path(__file__).resolve().parent / "contract"
BLAS = "OPENBLAS_NUM_THREADS"
WORKERS = "TRAJPHASE_THREADS"
ENSEMBLES = ("qsd-phase", "jump-sample")
# Runs each argv of a JSON list through cli.main; prints the exit codes.
CHILD = """\
import json, sys
from trajphase.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


class Row(NamedTuple):
    command: str
    scenario: str
    # A preset name or a mapping; None reads tests/contract/<scenario>.yaml.
    config: Union[str, dict, None] = None
    args: tuple[str, ...] = ()
    variables: tuple[str, ...] = (BLAS,)


ROWS = [
    Row("nojump-phase", "fig1", "fig1"),
    Row("nojump-phase", "fig1-steps-64", "fig1", ("--steps", "64")),
    Row("evolve", "fig1", "fig1"),
    Row("evolve", "fig1-steps-64", "fig1", ("--steps", "64")),
    # A 16-cell hidden shift: the master equation and the no-jump tracker
    # form each power level of all cells' maps in one stacked product, and
    # symmetry-check runs the plain and the shifted model as one two-point
    # stack.
    Row("symmetry-check", "hidden-shift"),
    Row("evolve", "hidden-shift"),
    # A visible constant complex shift: the verdict's not-hidden branch.
    Row("symmetry-check", "visible-shift"),
    # 200,000 steps: the exact mean path spans several windows, each a full
    # width into one run.
    Row("qsd-phase", "long-qsd"),
    # 64 lambda points on the 16-cell shift at 4096 steps: the tracker splits
    # them into two stacks whose 139-column windows are narrower than a
    # 256-step run, so one fill of a window's runs crosses window edges and
    # its stacked products span cells.
    Row("nojump-phase", "nojump-sweep"),
    # 4100 trajectories make three chunk jobs of 2048, so two workers really
    # share them, and each job unpickles the ensemble's kernel.
    Row("qsd-phase", "qsd-phase", variables=(WORKERS,)),
    Row("jump-sample", "jump-sample", variables=(WORKERS,)),
    # The 4-cell shift of jump-sample: the QSD kernel's pieces follow the
    # shift's cells.
    Row("qsd-phase", "jump-sample", variables=(WORKERS,)),
]


def _bench_rows() -> list[Row]:
    """Each bench workload as bench/run.py calls it, at seeds 0 and 7, full
    and tiny; the ensembles also across worker counts."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rows = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in (0, 7):
            for tiny in (False, True):
                built = workload.build(seed, tiny)
                variables = (BLAS, WORKERS) if built.command in ENSEMBLES else (BLAS,)
                label = f"{name}-seed{seed}" + ("-tiny" if tiny else "")
                args = ("--seed", str(seed))
                rows.append(Row(built.command, label, built.config, args, variables))
    return rows


ROWS += _bench_rows()
PAIRS = [(row, variable) for row in ROWS for variable in row.variables]


def _pair_id(row: Row, variable: str) -> str:
    return f"{variable}:{row.command}:{row.scenario}"


def _config_path(row: Row, root: Path) -> str:
    if row.config is None:
        return str(CONTRACT / f"{row.scenario}.yaml")
    if isinstance(row.config, str):
        return row.config
    path = root / f"{row.scenario}.yaml"
    path.write_text(yaml.safe_dump(row.config, sort_keys=False))
    return str(path)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict:
    """(exit code, output bytes) by pair id and variable value."""
    root = tmp_path_factory.mktemp("contract")
    configs = {row.scenario: _config_path(row, root) for row in ROWS}
    pythonpath = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    results = {}
    for variable in (BLAS, WORKERS):
        rows = [row for row in ROWS if variable in row.variables]
        for value in ("1", "2"):
            out = root / f"{variable}-{value}"
            out.mkdir()
            paths = [out / f"{i}.out" for i in range(len(rows))]
            argvs = [
                [row.command, "--config", configs[row.scenario], *row.args]
                + ["--quiet", "--out", str(path)]
                for row, path in zip(rows, paths)
            ]
            env = dict(os.environ, PYTHONPATH=pythonpath, **{variable: value})
            done = subprocess.run(
                [sys.executable, "-c", CHILD, json.dumps(argvs)],
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert done.returncode == 0, done.stderr
            for row, path, code in zip(rows, paths, json.loads(done.stdout)):
                data = path.read_bytes() if code == 0 else None
                results[_pair_id(row, variable), value] = (code, data)
    return results


@pytest.mark.parametrize(
    "row, variable", PAIRS, ids=[_pair_id(row, variable) for row, variable in PAIRS]
)
def test_output_does_not_depend_on_the_thread_count(outputs, row: Row, variable: str) -> None:
    key = _pair_id(row, variable)
    (code_1, bytes_1), (code_2, bytes_2) = outputs[key, "1"], outputs[key, "2"]
    what = f"trajphase {' '.join((row.command, *row.args))} on {row.scenario}"
    assert (code_1, code_2) == (0, 0), (
        f"{what} exits {code_1} at {variable}=1 and {code_2} at {variable}=2"
    )
    assert bytes_1 == bytes_2, f"{what}: output differs between {variable}=1 and {variable}=2"
