"""YAML scenario parsing, sweeps, and round-trip serialization."""

from __future__ import annotations

import math
import textwrap
from importlib import resources

import numpy as np
import pytest
import yaml

from trajphase import config
from trajphase.cli import EXIT_CONFIG, main
from trajphase.config import (
    ConfigError,
    RunSettings,
    load_config,
    parse_config,
    preset_names,
    serialize_config,
)
from trajphase.operators import pauli

DEPHASING_YAML = textwrap.dedent(
    """
    model:
      dim: 2
      hamiltonian: {preset: precession, omega: 1.0}
      lindblads: [sigma_z]
      lambda: 0.5
    shifts: [0.2]
    initial_state: {theta: 1.5707963267948966, phi: 0.0}
    run: {T: 6.283185307179586, steps: 4096, seed: 3}
    """
)


def _parse(text: str):
    return parse_config(textwrap.dedent(text))


def test_parse_dephasing_scenario() -> None:
    cfg = _parse(DEPHASING_YAML)
    assert cfg.model.dim == 2
    assert cfg.model.strength == 0.5
    assert np.allclose(
        cfg.model.hamiltonian.value_at(0.0).entries, 0.5 * pauli("z").entries
    )
    assert cfg.hamiltonian_kind == "precession"
    assert cfg.omega == 1.0
    assert cfg.channel_kinds == ("sigma_z",)
    assert cfg.shifts is not None
    assert complex(cfg.shifts.shifts[0].value_at(0.0)) == 0.2 + 0j
    assert cfg.initial_angles.theta == pytest.approx(math.pi / 2)
    assert cfg.run.total_time == pytest.approx(2 * math.pi)
    assert cfg.run.steps == 4096
    assert cfg.run.seed == 3
    assert cfg.sweep == ()


def test_config_error_carries_path() -> None:
    err = ConfigError("model.lambda", "must be >= 0")
    assert err.path == "model.lambda"
    assert str(err) == "model.lambda: must be >= 0"
    assert isinstance(err, ValueError)


@pytest.mark.parametrize(
    "mutation, path_fragment",
    [
        ("nonsense: {}", "nonsense"),
        ("model:\n  dim: 1\n  hamiltonian: {preset: precession, omega: 1.0}\n  lindblads: [sigma_z]\n  lambda: 0.5", "model.dim"),
        ("model:\n  dim: 2\n  hamiltonian: {preset: wobble}\n  lindblads: [sigma_z]\n  lambda: 0.5", "preset"),
        ("model:\n  dim: 2\n  hamiltonian: {}\n  lindblads: [sigma_z]\n  lambda: 0.5", "hamiltonian"),
        ("model:\n  dim: 2\n  hamiltonian: {preset: precession, omega: 1.0}\n  lindblads: [sigma_q]\n  lambda: 0.5", "lindblads[0]"),
        ("model:\n  dim: 2\n  hamiltonian: {preset: precession, omega: 1.0}\n  lindblads: sigma_z\n  lambda: 0.5", "model.lindblads"),
        ("model:\n  dim: 2\n  hamiltonian: {preset: precession, omega: 1.0}\n  lindblads: [sigma_z]\n  lambda: -0.5", "model.lambda"),
        ("model:\n  dim: 3\n  hamiltonian: {preset: precession, omega: 1.0}\n  lindblads: [annihilation]\n  lambda: 0.5", "model.hamiltonian"),
    ],
)
def test_model_section_errors(mutation: str, path_fragment: str) -> None:
    text = mutation + "\ninitial_state: {theta: 1.0}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert path_fragment in err.value.path


@pytest.mark.parametrize(
    "old, new, path",
    [
        ("phi: 0.0", "phi: .inf", "initial_state.phi"),
        ("lambda: 0.5", "lambda: .nan", "model.lambda"),
        ("shifts: [0.2]", "shifts: [[0.2, -.inf]]", "shifts"),
    ],
    ids=["phi", "lambda", "shift"],
)
def test_non_finite_numbers_are_refused(old: str, new: str, path: str) -> None:
    # A non-finite number has no JSON form for the report's config digest.
    text = textwrap.dedent(
        """
        model:
          dim: 2
          hamiltonian: {preset: precession, omega: 1.0}
          lindblads: [sigma_z]
          lambda: 0.5
        shifts: [0.2]
        initial_state: {theta: 1.0, phi: 0.0}
        run: {T: 1.0, steps: 16, seed: 0}
        """
    )
    assert old in text
    with pytest.raises(ConfigError, match="finite") as err:
        parse_config(text.replace(old, new))
    assert path in err.value.path


def test_matrix_forms() -> None:
    cfg = _parse(
        """
        model:
          dim: 2
          hamiltonian:
            matrix:
              - [0.5, 0.0]
              - [0.0, -0.5]
          lindblads:
            - matrix:
                - [[0.0, 0.0], [1.0, -1.0]]
                - [[0.0, 0.0], [0.0, 0.0]]
          lambda: 1.0
        initial_state: {amplitudes: [[1.0, 0.0], [1.0, 0.0]]}
        """
    )
    assert cfg.hamiltonian_kind == "matrix"
    assert cfg.channel_kinds == ("matrix",)
    chan = cfg.model.lindblads[0].value_at(0.0).entries
    assert chan[0, 1] == 1.0 - 1.0j
    # Amplitudes are normalized on input.
    assert cfg.initial_state.norm == pytest.approx(1.0)
    assert cfg.initial_angles is None
    with pytest.raises(ConfigError, match="expected 2x2"):
        _parse(
            """
            model:
              dim: 2
              hamiltonian: {matrix: [[0.0]]}
              lindblads: [sigma_z]
              lambda: 0.5
            initial_state: {theta: 1.0}
            """
        )


def test_shift_parsing() -> None:
    cfg = _parse(
        """
        model:
          dim: 2
          hamiltonian: {preset: precession, omega: 1.0}
          lindblads: [sigma_z, sigma_x]
          lambda: 0.5
        shifts:
          - [0.1, -0.3]
          - {cell: 0.5, values: [0.0, [0.2, 0.1]]}
        initial_state: {theta: 1.0}
        """
    )
    assert complex(cfg.shifts.shifts[0].value_at(0.0)) == 0.1 - 0.3j
    assert complex(cfg.shifts.shifts[1].value_at(0.7)) == 0.2 + 0.1j
    with pytest.raises(ConfigError, match="entries for"):
        _parse(DEPHASING_YAML.replace("shifts: [0.2]", "shifts: [0.2, 0.3]"))
    with pytest.raises(ConfigError) as err:
        _parse(DEPHASING_YAML.replace("shifts: [0.2]", "shifts: [{cell: -1.0, values: [0.1]}]"))
    assert "cell" in err.value.path


def test_initial_state_errors() -> None:
    with pytest.raises(ConfigError, match="zero"):
        _parse(
            DEPHASING_YAML.replace(
                "initial_state: {theta: 1.5707963267948966, phi: 0.0}",
                "initial_state: {amplitudes: [0.0, 0.0]}",
            )
        )
    with pytest.raises(ConfigError) as err:
        _parse(
            DEPHASING_YAML.replace(
                "initial_state: {theta: 1.5707963267948966, phi: 0.0}",
                "initial_state: {theta: 9.0}",
            )
        )
    assert err.value.path == "initial_state.theta"


def test_tiny_amplitudes_are_not_a_zero_vector() -> None:
    # 3.55e-281 squared underflows to 0; the state is still |1>.
    cfg = _parse(
        DEPHASING_YAML.replace(
            "initial_state: {theta: 1.5707963267948966, phi: 0.0}",
            "initial_state: {amplitudes: [0.0, 3.55e-281]}",
        )
    )
    assert cfg.initial_state.amplitudes.tolist() == [0.0, 1.0]


def test_run_settings() -> None:
    cfg = _parse(DEPHASING_YAML)
    assert cfg.run.require("total_time", "evolve") == pytest.approx(2 * math.pi)
    with pytest.raises(ConfigError) as err:
        cfg.run.require("delta_t", "jump-sample")
    assert err.value.path == "run.delta_t"
    assert "jump-sample" in str(err.value)
    with pytest.raises(ConfigError) as err:
        RunSettings().require("total_time", "evolve")
    assert err.value.path == "run.T"
    with pytest.raises(ConfigError, match="unknown run setting"):
        _parse(DEPHASING_YAML.replace("seed: 3", "seed: 3, dt: 0.1"))
    with pytest.raises(ConfigError, match="positive"):
        _parse(DEPHASING_YAML.replace("steps: 4096", "delta_t: -0.1"))


def test_sweep_parsing_and_points() -> None:
    cfg = _parse(
        DEPHASING_YAML
        + textwrap.dedent(
            """
            sweep:
              f: [0.0, 2.0]
              lambda: {start: 0.0, stop: 1.0, count: 3}
            """
        )
    )
    names = [axis.name for axis in cfg.sweep]
    assert names == ["f", "lambda"]
    assert cfg.sweep[1].values == (0.0, 0.5, 1.0)
    points = list(cfg.sweep_points())
    assert len(points) == 6
    # First axis varies slowest.
    assert [p[0]["f"] for p in points] == [0.0, 0.0, 0.0, 2.0, 2.0, 2.0]
    assign, pinned = points[-1]
    assert assign == {"f": 2.0, "lambda": 1.0}
    assert pinned.model.strength == 1.0
    assert complex(pinned.shifts.shifts[0].value_at(0.0)) == 2.0 + 0j


def test_sweep_errors() -> None:
    with pytest.raises(ConfigError, match="at most two"):
        _parse(DEPHASING_YAML + "sweep: {f: [0.0], lambda: [0.1], theta0: [1.0]}")
    with pytest.raises(ConfigError, match="not sweepable"):
        _parse(DEPHASING_YAML + "sweep: {omega: [1.0]}")
    with pytest.raises(ConfigError) as err:
        _parse(DEPHASING_YAML + "sweep: {f: {start: 0.0, stop: 1.0, count: 0}}")
    assert err.value.path == "sweep.f.count"
    with pytest.raises(ConfigError, match="value list"):
        _parse(DEPHASING_YAML + "sweep: {f: []}")


def test_f_sweep_without_channels_is_refused(tmp_path, capsys) -> None:
    # With no channel to shift, every f would give the same unshifted model
    # and identical rows.
    text = textwrap.dedent(
        """
        model:
          dim: 2
          hamiltonian: {preset: precession, omega: 1.0}
          lindblads: []
          lambda: 0.5
        initial_state: {theta: 1.5707963267948966, phi: 0.0}
        run: {T: 1.0, steps: 64, seed: 0}
        sweep: {f: [0.0, 1.0]}
        """
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == "sweep.f"
    path = tmp_path / "no_channels.yaml"
    path.write_text(text)
    assert main(["nojump-phase", "--config", str(path)]) == EXIT_CONFIG
    assert "config error: sweep.f: the model has no channel to shift" in capsys.readouterr().err
    # A sweep of lambda alone stays valid on a closed model.
    assert len(parse_config(text.replace("f: [0.0, 1.0]", "lambda: [0.0, 1.0]")).sweep) == 1


def test_sweep_grid_arrays_match_the_pinned_points() -> None:
    cfg = _parse(
        DEPHASING_YAML
        + textwrap.dedent(
            """
            sweep:
              theta0: [0.5, 1.0, 2.0]
              f: [0.0, -1.5]
            """
        )
    )
    grid = cfg.sweep_grid()
    points = list(cfg.sweep_points())
    assert list(grid.assignments) == [point for point, _ in points]
    assert grid.shift_cell is None and grid.shifts.shape == (6, 1, 1)
    for p, (point, pinned) in enumerate(points):
        assert grid.strengths[p] == pinned.model.strength
        assert grid.shifts[p, 0, 0] == complex(pinned.shifts.shifts[0].value_at(0.0))
        assert grid.states[p].tobytes() == pinned.initial_state.amplitudes.tobytes()
        assert cfg.dephasing_params(point) == pinned.dephasing_params()


def test_at_point_assignments() -> None:
    cfg = _parse(DEPHASING_YAML)
    moved = cfg.at_point(**{"lambda": 0.9, "f": -1.0, "theta0": 0.7})
    assert moved.model.strength == 0.9
    assert complex(moved.shifts.shifts[0].value_at(0.0)) == -1.0 + 0j
    assert moved.initial_angles.theta == pytest.approx(0.7)
    # The original is untouched and the phi angle survives.
    assert cfg.model.strength == 0.5
    assert moved.initial_angles.phi == cfg.initial_angles.phi
    with pytest.raises(ConfigError, match="unknown swept"):
        cfg.at_point(omega=2.0)


def test_dephasing_params_detection() -> None:
    p = _parse(DEPHASING_YAML).dephasing_params()
    assert p is not None
    assert (p.omega, p.strength, p.shift) == (1.0, 0.5, 0.2)
    assert p.theta0 == pytest.approx(math.pi / 2)
    # No shifts section means f = 0.
    bare = _parse("\n".join(l for l in DEPHASING_YAML.splitlines() if "shifts" not in l))
    assert bare.dephasing_params().shift == 0.0
    # Complex shift, wrong channel, or amplitude state all disqualify.
    assert _parse(
        DEPHASING_YAML.replace("shifts: [0.2]", "shifts: [[0.2, 0.1]]")
    ).dephasing_params() is None
    assert _parse(
        DEPHASING_YAML.replace("[sigma_z]", "[sigma_x]")
    ).dephasing_params() is None
    assert _parse(
        DEPHASING_YAML.replace(
            "initial_state: {theta: 1.5707963267948966, phi: 0.0}",
            "initial_state: {amplitudes: [[1.0, 0.0], [1.0, 0.0]]}",
        )
    ).dephasing_params() is None


def test_serialize_round_trip() -> None:
    for text in (
        DEPHASING_YAML,
        DEPHASING_YAML + "sweep: {f: [0.0, 0.2, 2.0]}",
    ):
        cfg = _parse(text)
        dumped = serialize_config(cfg)
        again = parse_config(dumped)
        assert again.to_mapping() == cfg.to_mapping()
        assert serialize_config(again) == dumped


def test_round_trip_of_matrix_scenario() -> None:
    cfg = _parse(
        """
        model:
          dim: 3
          hamiltonian:
            matrix:
              - [1.0, 0.0, 0.0]
              - [0.0, 0.0, 0.0]
              - [0.0, 0.0, -1.0]
          lindblads: [annihilation]
          lambda: 0.25
        initial_state: {amplitudes: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
        run: {T: 1.0, delta_t: 0.01, n_trajectories: 10, seed: 1}
        """
    )
    again = parse_config(serialize_config(cfg))
    assert again.to_mapping() == cfg.to_mapping()
    assert again.model.dim == 3
    assert again.run.n_trajectories == 10


def test_load_config_presets(tmp_path) -> None:
    assert "fig1" in preset_names()
    preset = load_config("fig1")
    assert preset.omega == 1.0
    assert [axis.name for axis in preset.sweep] == ["f", "lambda"]
    assert len(preset.sweep[1].values) == 101
    # A real file wins over preset lookup.
    path = tmp_path / "scenario.yaml"
    path.write_text(DEPHASING_YAML)
    from_file = load_config(path)
    assert from_file.run.seed == 3
    with pytest.raises(ConfigError, match="fig1"):
        load_config("no-such-scenario")


def test_parse_rejects_non_yaml() -> None:
    with pytest.raises(ConfigError, match="YAML"):
        parse_config("model: [unclosed")
    with pytest.raises(ConfigError):
        parse_config("- a\n- b\n")


MATRIX_YAML = """
model:
  dim: 3
  hamiltonian:
    matrix:
      - [1.0, 0.0, 0.0]
      - [0.0, 0.0, 0.0]
      - [0.0, 0.0, -1.0]
  lindblads: [annihilation, {matrix: [[0, 1, 0], [1, 0, 0], [0, 0, [0.5, -0.5]]]}]
  lambda: 0.25
shifts: [{cell: 0.5, values: [0.0, [0.1, 0.2]]}, [0.3, -0.1]]
initial_state: {amplitudes: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
run: {T: 1.0, delta_t: 0.01, n_trajectories: 10, seed: 1}
sweep: {lambda: {start: 0.0, stop: 1.0, count: 4}}
"""


def _scenario_texts() -> list[str]:
    fig1 = resources.files("trajphase") / "presets" / "fig1.yaml"
    return [
        fig1.read_text(),
        textwrap.dedent(DEPHASING_YAML),
        textwrap.dedent(DEPHASING_YAML) + "sweep: {f: [0.0, 0.2, 2.0]}\n",
        textwrap.dedent(MATRIX_YAML),
    ]


def test_pure_python_yaml_gives_the_same_configs(monkeypatch) -> None:
    texts = _scenario_texts()
    fast = [parse_config(text) for text in texts]
    fast_dumps = [serialize_config(cfg) for cfg in fast]
    fast_docs = [yaml.load(text, Loader=config._LOADER) for text in texts]
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(config, "_DUMPER", yaml.SafeDumper)
    for text, cfg, dumped, doc in zip(texts, fast, fast_dumps, fast_docs):
        assert yaml.load(text, Loader=yaml.SafeLoader) == doc
        slow = parse_config(text)
        assert slow.to_mapping() == cfg.to_mapping()
        assert serialize_config(slow) == dumped
        assert serialize_config(cfg) == dumped


@pytest.mark.parametrize("loader", [yaml.SafeLoader, config._LOADER])
def test_malformed_yaml_names_its_source(loader, monkeypatch, tmp_path, capsys) -> None:
    monkeypatch.setattr(config, "_LOADER", loader)
    with pytest.raises(ConfigError, match=r"^bad\.yaml: not valid YAML: "):
        parse_config("model: [unclosed", source="bad.yaml")
    path = tmp_path / "bad.yaml"
    path.write_text("model: {dim: 2\nrun: [")
    assert main(["evolve", "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: {path}: not valid YAML" in capsys.readouterr().err


def test_negative_run_seed_is_a_config_error() -> None:
    with pytest.raises(ConfigError) as err:
        _parse(DEPHASING_YAML.replace("seed: 3", "seed: -3"))
    assert err.value.path == "run.seed"


def test_theta0_sweep_of_amplitudes_is_refused(tmp_path, capsys) -> None:
    # A theta0 point replaces the state by a Bloch state; for amplitudes
    # there is no phi to keep, and past dim 2 no Bloch state at all.
    amp = 0.7071067811865476
    text = DEPHASING_YAML.replace(
        "initial_state: {theta: 1.5707963267948966, phi: 0.0}",
        f"initial_state: {{amplitudes: [{amp}, [0.0, {amp}]]}}",
    ) + "sweep: {theta0: [1.5707963267948966]}\n"
    three_level = textwrap.dedent(
        """
        model:
          dim: 3
          hamiltonian: {matrix: [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]}
          lindblads: [annihilation]
          lambda: 0.25
        initial_state: {amplitudes: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
        run: {T: 1.0, steps: 64, seed: 1}
        sweep: {theta0: [0.5, 1.0]}
        """
    )
    for source in (text, three_level):
        with pytest.raises(ConfigError) as err:
            list(_parse(source).sweep_points())
        assert err.value.path == "sweep.theta0"
        path = tmp_path / "amplitudes.yaml"
        path.write_text(textwrap.dedent(source))
        assert main(["nojump-phase", "--config", str(path)]) == EXIT_CONFIG == 2
        assert "config error: sweep.theta0: needs an initial_state" in capsys.readouterr().err
