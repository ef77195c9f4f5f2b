"""End-to-end command line runs, exit codes, and output formats."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from trajphase.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, SCHEMA_LINE, main
from trajphase.dephasing import DephasingParams, closed_form_no_jump_phase
from trajphase.operators import wrap_phase

BASE_YAML = """\
model:
  dim: 2
  hamiltonian: {preset: precession, omega: 1.0}
  lindblads: [sigma_z]
  lambda: 0.5
shifts: [0.2]
initial_state: {theta: 1.5707963267948966, phi: 0.0}
run: {T: 1.0, steps: 256, seed: 0}
"""


@pytest.fixture()
def config_file(tmp_path):
    def write(text: str, name: str = "scenario.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def _rows(text: str) -> list[list[str]]:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [line.split(",") for line in lines]


def test_evolve_stdout(config_file, capsys) -> None:
    assert main(["evolve", "--config", config_file(BASE_YAML)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(SCHEMA_LINE + "\n")
    rows = _rows(out)
    assert rows[0] == ["t", "rho00", "re_rho01", "im_rho01", "rho11"]
    assert len(rows) == 258  # header + 257 grid points
    t, rho00, re01, im01, rho11 = map(float, rows[-1])
    assert t == pytest.approx(1.0)
    want = 0.5 * np.exp(-(2 * 0.5 + 1j) * 1.0)
    assert re01 == pytest.approx(want.real, abs=1e-9)
    assert im01 == pytest.approx(want.imag, abs=1e-9)
    assert rho00 == pytest.approx(0.5, abs=1e-10)


def test_evolve_is_byte_deterministic(config_file, capsys) -> None:
    path = config_file(BASE_YAML)
    main(["evolve", "--config", path])
    first = capsys.readouterr().out
    main(["evolve", "--config", path])
    assert capsys.readouterr().out == first


def test_out_file_and_report(config_file, tmp_path, capsys) -> None:
    path = config_file(BASE_YAML)
    out = tmp_path / "rho.csv"
    assert main(["evolve", "--config", path, "--out", str(out)]) == EXIT_OK
    main(["evolve", "--config", path])
    assert out.read_text() == capsys.readouterr().out
    report = json.loads((tmp_path / "rho.csv.report.json").read_text())
    assert report["command"] == "evolve"
    assert len(report["config_digest"]) == 64
    assert report["seed"] == 0
    assert report["outputs"] == [str(out)]
    assert set(report["versions"]) == {"python", "numpy", "scipy", "trajphase"}
    assert report["wall_time_s"] >= 0
    assert report["warnings"] == []


def test_seed_override_lands_in_report_and_digest(config_file, tmp_path) -> None:
    path = config_file(BASE_YAML.replace("seed: 0", "seed: 0, delta_t: 0.01, n_trajectories: 20"))
    digests = {}
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}.csv"
        assert (
            main(["jump-sample", "--config", path, "--seed", seed, "--out", str(out)])
            == EXIT_OK
        )
        report = json.loads((tmp_path / f"s{seed}.csv.report.json").read_text())
        assert report["seed"] == int(seed)
        digests[seed] = report["config_digest"]
    assert digests["1"] != digests["2"]
    assert (tmp_path / "s1.csv").read_text() != (tmp_path / "s2.csv").read_text()


def test_nojump_phase_sweep(config_file, capsys) -> None:
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 6.283185307179586, steps: 1024, seed: 0}")
    text += "sweep:\n  f: [0.2, 2.0]\n  lambda: [0.3, 0.8]\n"
    assert main(["nojump-phase", "--config", config_file(text)]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == [
        "f", "lambda", "phase", "overlap_arg", "dynamical_term",
        "survival", "crossings", "status",
    ]
    assert len(rows) == 5
    for row in rows[1:]:
        f, lam = float(row[0]), float(row[1])
        assert row[-1] == "ok"
        params = DephasingParams(1.0, lam, f, math.pi / 2)
        got = float(row[2])
        assert abs(wrap_phase(got - closed_form_no_jump_phase(params))) < 1e-6
        assert 0.0 < float(row[5]) <= 1.0


def test_nojump_phase_reports_branch_failure(config_file, capsys) -> None:
    # omega T = pi parks the overlap on a zero at the endpoint; the row is
    # flagged instead of aborting the sweep.
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 3.141592653589793, steps: 512, seed: 0}")
    text = text.replace("shifts: [0.2]\n", "")
    code = main(["nojump-phase", "--config", config_file(text)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = _rows(captured.out)
    assert rows[1][-1] == "branch-failure"
    assert rows[1][-2] == "-1"
    assert math.isnan(float(rows[1][0]))
    assert "branch tracking failed" in captured.err


def test_nojump_phase_reports_total_decay(config_file, capsys) -> None:
    # At lambda = 200 the no-jump norm underflows long before T = 2 pi; that
    # point gets its own row and the other point still runs.
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 6.283185307179586, steps: 256, seed: 0}")
    text += "sweep:\n  lambda: [0.5, 200.0]\n"
    code = main(["nojump-phase", "--config", config_file(text)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = _rows(captured.out)
    assert [row[-1] for row in rows[1:]] == ["ok", "total-decay"]
    assert rows[2][-2] == "-1"
    assert math.isnan(float(rows[2][1]))
    assert "no-jump norm underflowed at {'lambda': 200.0}" in captured.err


def test_jump_sample_output(config_file, capsys) -> None:
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 1.0, delta_t: 0.01, n_trajectories: 50, seed: 4}")
    assert main(["jump-sample", "--config", config_file(text)]) == EXIT_OK
    out = capsys.readouterr().out
    rows = _rows(out)
    assert rows[0] == ["trajectory", "jumps", "survival"]
    body = rows[1:]
    assert len(body) == 50
    for row in body:
        jumps, survived = int(row[1]), int(row[2])
        assert survived == (1 if jumps == 0 else 0)
    summary = {}
    for line in out.splitlines():
        if line.startswith("# summary "):
            _, _, key, value = line.split(" ", 3)
            summary[key] = float(value)
    assert summary["n_trajectories"] == 50
    counts = [int(row[1]) for row in body]
    assert summary["mean_jumps"] == pytest.approx(np.mean(counts))
    assert summary["mean_jumps_se"] == pytest.approx(
        math.sqrt(np.var(counts, ddof=1) / 50)
    )
    assert {"final_rho00", "final_re_rho01", "final_im_rho01", "final_rho11",
            "max_std_error"} <= set(summary)


def test_jump_sample_deterministic_across_threads(config_file, capsys, monkeypatch) -> None:
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 1.0, delta_t: 0.01, n_trajectories: 30, seed: 9}")
    path = config_file(text)
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        assert main(["jump-sample", "--config", path]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_qsd_phase_output(config_file, capsys) -> None:
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 1.0, delta_t: 0.01, n_trajectories: 400, seed: 2}")
    text += "sweep:\n  f: [0.0, 1.0]\n"
    assert main(["qsd-phase", "--config", config_file(text), "--quiet"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == [
        "f", "phase", "phase_se", "overlap_arg", "dynamical_term",
        "n_used", "n_excluded", "closed_form", "status",
    ]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[8] == "ok"
        assert int(row[5]) == 400
        assert int(row[6]) == 0
        closed = float(row[7])
        assert not math.isnan(closed)
        assert abs(float(row[1]) - closed) < 5 * float(row[2]) + 1e-3


def test_qsd_phase_reports_all_overflow(config_file, capsys) -> None:
    # lambda * delta_t = 6 makes the Euler steps unstable: at f = 0 some
    # trajectories survive, at f = 3 none do. The sweep still writes both rows.
    text = BASE_YAML.replace("lambda: 0.5", "lambda: 60.0")
    text = text.replace("run: {T: 1.0, steps: 256, seed: 0}",
                        "run: {T: 24.0, delta_t: 0.1, n_trajectories: 16, seed: 0}")
    text += "sweep:\n  f: [0.0, 3.0]\n"
    assert main(["qsd-phase", "--config", config_file(text)]) == EXIT_OK
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    assert [row[-1] for row in rows[1:]] == ["ok", "all-overflow"]
    assert 0 < int(rows[1][5]) < 16
    bad = rows[2]
    assert all(math.isnan(float(v)) for v in bad[1:5])
    assert (bad[5], bad[6]) == ("0", "16")
    assert "every trajectory overflowed at {'f': 3.0}" in captured.err


def test_qsd_phase_sweep_in_one_pass_equals_one_point_runs(
    config_file, tmp_path, monkeypatch
) -> None:
    # lambda = 30: f = 0 keeps every trajectory, f = 3 loses all of them and
    # f = 0.5 about half. 2100 trajectories make two chunks per point, and
    # delta_t = 0.07 snaps, so every point also warns once for the grid.
    text = BASE_YAML.replace("lambda: 0.5", "lambda: 30.0")
    text = text.replace("run: {T: 1.0, steps: 256, seed: 0}",
                        "run: {T: 24.0, delta_t: 0.07, n_trajectories: 2100, seed: 0}")

    def run(sweep: str, tag: str) -> tuple[list[str], dict]:
        out = tmp_path / f"{tag}.csv"
        path = config_file(text + f"sweep:\n  f: [{sweep}]\n", f"{tag}.yaml")
        assert main(["qsd-phase", "--config", path, "--out", str(out), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / f"{out.name}.report.json").read_text())
        return out.read_text().splitlines(), report["warning_counts"]

    lines, counts = run("0.0, 3.0, 0.5", "sweep")
    assert [line.split(",")[-1] for line in lines[2:]] == ["ok", "all-overflow", "ok"]
    assert 0 < int(lines[4].split(",")[6]) < 2100
    summed: dict = {}
    for f, line in zip(("0.0", "3.0", "0.5"), lines[2:]):
        alone, alone_counts = run(f, f"point-{f}")
        assert alone[:2] == lines[:2]
        assert alone[2:] == [line]
        for message, count in alone_counts.items():
            summed[message] = summed.get(message, 0) + count
    assert counts == summed
    assert "every trajectory overflowed at {'f': 3.0}" in counts

    monkeypatch.setenv("TRAJPHASE_THREADS", "2")
    assert run("0.0, 3.0, 0.5", "sweep-threads2") == (lines, counts)


def test_qsd_phase_rejects_other_sweeps(config_file, capsys) -> None:
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 1.0, delta_t: 0.01, n_trajectories: 10, seed: 2}")
    text += "sweep:\n  theta0: [0.5, 1.0]\n"
    assert main(["qsd-phase", "--config", config_file(text)]) == EXIT_CONFIG
    assert "sweeps the shift f only" in capsys.readouterr().err


def test_symmetry_check_hidden(config_file, capsys) -> None:
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 6.283185307179586, steps: 2048, seed: 0}")
    assert main(["symmetry-check", "--config", config_file(text)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "trajphase-symmetry-1"
    assert doc["hidden"] is True
    assert doc["hidden_per_channel"] == [True]
    assert doc["rho_residual_max"] <= 1e-8
    assert abs(doc["phase_difference"]) > 1e-3
    assert doc["verdict"].startswith("hidden shift")
    # conj(f) L Hermitian makes the regrouped Hamiltonian equal H exactly.
    assert doc["generator_shift_max"] == 0.0


def test_symmetry_check_visible(config_file, capsys) -> None:
    text = BASE_YAML.replace("lindblads: [sigma_z]", "lindblads: [sigma_minus]")
    assert main(["symmetry-check", "--config", config_file(text)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["hidden"] is False
    assert doc["rho_residual_max"] > 1e-4
    assert doc["generator_shift_max"] > 1e-3
    assert doc["verdict"].startswith("shift is not hidden")


def test_symmetry_check_generator_shift_covers_every_cell(config_file, capsys) -> None:
    # The shift is zero in the first cell; the second moves K by
    # lambda * |Im f| * sigma_z.
    text = BASE_YAML.replace("shifts: [0.2]", "shifts: [{cell: 0.5, values: [0.0, [0.0, 0.5]]}]")
    assert main(["symmetry-check", "--config", config_file(text)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["hidden"] is False
    assert doc["generator_shift_max"] == pytest.approx(0.25, abs=1e-12)


def test_symmetry_check_needs_shifts(config_file, capsys) -> None:
    text = BASE_YAML.replace("shifts: [0.2]\n", "")
    assert main(["symmetry-check", "--config", config_file(text)]) == EXIT_CONFIG
    assert "needs a shifts section" in capsys.readouterr().err


def test_exit_codes_for_bad_input(config_file, tmp_path, capsys) -> None:
    assert main(["evolve", "--config", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG
    assert "no such config" in capsys.readouterr().err
    bad = config_file("model: [unclosed", name="bad.yaml")
    assert main(["evolve", "--config", bad]) == EXIT_CONFIG
    capsys.readouterr()
    # run.T is required by evolve.
    no_t = config_file(BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                                         "run: {steps: 16, seed: 0}"), name="no_t.yaml")
    assert main(["evolve", "--config", no_t]) == EXIT_CONFIG
    assert "run.T" in capsys.readouterr().err


def test_exit_code_for_numeric_failure(config_file, capsys) -> None:
    text = BASE_YAML.replace("lambda: 0.5", "lambda: 1.0")
    text = text.replace("shifts: [0.2]", "shifts: [30.0]")
    text = text.replace("run: {T: 1.0, steps: 256, seed: 0}",
                        "run: {T: 0.5, delta_t: 0.01, n_trajectories: 2, seed: 0}")
    assert main(["jump-sample", "--config", config_file(text)]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_steps_override(config_file, capsys) -> None:
    path = config_file(BASE_YAML)
    assert main(["evolve", "--config", path, "--steps", "64"]) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 66
    assert main(["evolve", "--config", path, "--steps", "0"]) == EXIT_CONFIG
    assert "--steps" in capsys.readouterr().err


def test_quiet_suppresses_warnings(config_file, capsys) -> None:
    # pi/2 is not a multiple of delta_t, so the grid-snap warning fires.
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 1.5707963267948966, delta_t: 0.001, n_trajectories: 20, seed: 0}")
    path = config_file(text)
    assert main(["qsd-phase", "--config", path]) == EXIT_OK
    assert "trajphase: warning:" in capsys.readouterr().err
    assert main(["qsd-phase", "--config", path, "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_argparse_failures_return_config_exit(capsys) -> None:
    assert main([]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["evolve"]) == EXIT_CONFIG
    assert main(["no-such-command", "--config", "x"]) == EXIT_CONFIG
    capsys.readouterr()


def test_preset_runs_end_to_end(capsys) -> None:
    assert main(["nojump-phase", "--config", "fig1", "--steps", "128", "--quiet"]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1 + 3 * 101
    zero_rows = [r for r in rows[1:] if float(r[0]) == 0.0]
    assert len(zero_rows) == 101
    for row in zero_rows:
        assert abs(abs(float(row[2])) - math.pi) < 1e-6


def test_report_counts_each_warning(config_file, tmp_path) -> None:
    # The grid-snap warning fires at every sweep point; the report keeps the
    # distinct messages under "warnings" and their counts under
    # "warning_counts".
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 1.5707963267948966, delta_t: 0.001, n_trajectories: 20, seed: 0}")
    counts = []
    for sweep in ("", "sweep:\n  f: [0.0, 0.2]\n"):
        out = tmp_path / f"qsd{len(counts)}.csv"
        path = config_file(text + sweep)
        assert main(["qsd-phase", "--config", path, "--out", str(out), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / f"{out.name}.report.json").read_text())
        assert list(report["warning_counts"]) == report["warnings"]
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].startswith("delta_t adjusted from 0.001")
        counts.append(report["warning_counts"][report["warnings"][0]])
    assert counts[0] >= 1
    assert counts[1] == 2 * counts[0]


@pytest.mark.parametrize("command", ["qsd-phase", "jump-sample"])
def test_warning_counts_equal_across_threads(command, config_file, tmp_path, monkeypatch) -> None:
    # 2100 trajectories make two chunks of a point; the grid-snap warning
    # fires once per point whether the chunks run here or in workers.
    text = BASE_YAML.replace("run: {T: 1.0, steps: 256, seed: 0}",
                             "run: {T: 1.5707963267948966, delta_t: 0.01, "
                             "n_trajectories: 2100, seed: 0}")
    if command == "qsd-phase":
        text += "sweep:\n  f: [0.0, 0.2]\n"
    path = config_file(text)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TRAJPHASE_THREADS", threads)
        out = tmp_path / f"{command}-{threads}.csv"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == EXIT_OK
        reports.append(json.loads((tmp_path / f"{out.name}.report.json").read_text()))
    assert reports[0]["warning_counts"] == reports[1]["warning_counts"]
    snaps = [m for m in reports[0]["warnings"] if m.startswith("delta_t adjusted")]
    assert len(snaps) == 1
    points = 2 if command == "qsd-phase" else 1
    assert reports[0]["warning_counts"][snaps[0]] == points
