"""YAML scenario parsing, sweeps, and round-trip serialization."""

from __future__ import annotations

import hashlib
import math
import textwrap
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

from trajphase import config
from trajphase.cli import EXIT_CONFIG, _config_digest, main
from trajphase.config import (
    ConfigError,
    RunSettings,
    load_config,
    parse_config,
    preset_names,
    serialize_config,
)
from trajphase.lindblad import lower_points
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
    canonical = cfg.to_mapping()
    assert canonical["model"]["hamiltonian"] == {"preset": "precession", "omega": 1.0}
    assert canonical["model"]["lindblads"] == ["sigma_z"]
    assert cfg.shifts is not None
    assert complex(cfg.shifts.shifts[0].value_at(0.0)) == 0.2 + 0j
    assert canonical["initial_state"]["theta"] == pytest.approx(math.pi / 2)
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
    canonical = cfg.to_mapping()
    assert list(canonical["model"]["hamiltonian"]) == ["matrix"]
    assert [list(chan) for chan in canonical["model"]["lindblads"]] == [["matrix"]]
    chan = cfg.model.lindblads[0].value_at(0.0).entries
    assert chan[0, 1] == 1.0 - 1.0j
    # Amplitudes are normalized on input.
    assert cfg.initial_state.norm == pytest.approx(1.0)
    assert list(canonical["initial_state"]) == ["amplitudes"]
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


PIECEWISE_SWEEP_YAML = textwrap.dedent(
    """
    model:
      dim: 2
      hamiltonian: {preset: precession, omega: 1.0}
      lindblads: [sigma_z, sigma_x]
      lambda: 0.5
    shifts:
      - {cell: 0.5, values: [0.1, [0.2, 0.3]]}
      - 0.4
    initial_state: {theta: 1.0, phi: 0.25}
    run: {T: 1.0, steps: 64, seed: 2}
    """
)


@pytest.mark.parametrize(
    "sweep",
    ["{lambda: [0.0, 0.3, 1.0], f: [0.0, -1.5]}", "{theta0: [0.5, 3.0], lambda: [0.2, 0.7]}"],
    ids=["lambda-f-piecewise", "theta0-lambda"],
)
def test_pinned_points_equal_the_parsed_scenario_at_that_point(sweep: str) -> None:
    # Each point written into the YAML by hand and parsed: its canonical
    # document, state and closed form are those of the pinned config.
    cfg = parse_config(PIECEWISE_SWEEP_YAML + f"sweep: {sweep}\n")
    points = list(cfg.sweep_points())
    assert len(points) == math.prod(len(axis.values) for axis in cfg.sweep)
    for point, pinned in points:
        doc = yaml.safe_load(PIECEWISE_SWEEP_YAML + f"sweep: {sweep}\n")
        doc["model"]["lambda"] = point["lambda"]
        if "f" in point:
            doc["shifts"] = [point["f"]] * len(doc["model"]["lindblads"])
        if "theta0" in point:
            doc["initial_state"]["theta"] = point["theta0"]
        parsed = parse_config(yaml.safe_dump(doc))
        assert pinned.to_mapping() == parsed.to_mapping()
        assert serialize_config(pinned) == serialize_config(parsed)
        assert pinned.model.strength == parsed.model.strength
        state = parsed.initial_state.amplitudes
        assert pinned.initial_state.amplitudes.tobytes() == state.tobytes()
        assert cfg.dephasing_params(point) == parsed.dephasing_params()


@pytest.mark.parametrize(
    "text",
    [
        PIECEWISE_SWEEP_YAML + "sweep: {lambda: [0.0, 0.3, 1.0]}\n",
        PIECEWISE_SWEEP_YAML + "sweep: {lambda: [0.0, 0.3, 1.0], f: [0.0, -1.5]}\n",
        PIECEWISE_SWEEP_YAML + "sweep: {theta0: [0.5, 3.0], lambda: [0.2, 0.7]}\n",
        resources.files("trajphase").joinpath("presets", "fig1.yaml").read_text(),
    ],
    ids=["lambda-piecewise", "lambda-f-piecewise", "theta0-lambda", "fig1"],
)
def test_pinned_points_of_a_scenario_lower_as_one_group(text: str) -> None:
    # The pinned models keep the scenario's Hamiltonian and channel
    # schedules, so one lowering takes every point.
    points = [(pinned.model, pinned.shifts) for _, pinned in parse_config(text).sweep_points()]
    ((_, members),) = lower_points(points)
    assert members == list(range(len(points)))


def test_canonical_is_read_only_and_to_mapping_copies_it() -> None:
    # A pin of f on two channels gives two equal shift nodes; each is its
    # own container, so the YAML text has no anchors.
    pinned = parse_config(PIECEWISE_SWEEP_YAML).at_point(f=-1.5)
    with pytest.raises(TypeError):
        pinned.canonical["model"]["lambda"] = 2.0
    with pytest.raises(AttributeError):
        pinned.canonical["model"]["lindblads"].append("sigma_y")
    before = pinned.to_mapping()
    changed = pinned.to_mapping()
    changed["model"]["lindblads"].append("sigma_y")
    changed["shifts"][0][0] = 9.0
    assert pinned.to_mapping() == before
    assert before["shifts"] == [[-1.5, 0.0], [-1.5, 0.0]]

    def containers(node) -> list:
        children = node.values() if isinstance(node, dict) else node
        found = [node]
        for child in children:
            if isinstance(child, (dict, list)):
                found += containers(child)
        return found

    ids = [id(node) for node in containers(before)]
    assert len(ids) == len(set(ids))
    assert "&id" not in serialize_config(pinned)


def test_at_point_assignments() -> None:
    cfg = _parse(DEPHASING_YAML)
    moved = cfg.at_point(**{"lambda": 0.9, "f": -1.0, "theta0": 0.7})
    assert moved.model.strength == 0.9
    assert complex(moved.shifts.shifts[0].value_at(0.0)) == -1.0 + 0j
    assert moved.to_mapping()["initial_state"]["theta"] == pytest.approx(0.7)
    # The original is untouched and the phi angle survives.
    assert cfg.model.strength == 0.5
    assert moved.to_mapping()["initial_state"]["phi"] == cfg.to_mapping()["initial_state"]["phi"]
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
    assert preset.to_mapping()["model"]["hamiltonian"]["omega"] == 1.0
    assert [axis.name for axis in preset.sweep] == ["f", "lambda"]
    assert len(preset.sweep[1].values) == 101
    # A real file wins over preset lookup.
    path = tmp_path / "scenario.yaml"
    path.write_text(DEPHASING_YAML)
    from_file = load_config(path)
    assert from_file.run.seed == 3
    with pytest.raises(ConfigError, match="fig1"):
        load_config("no-such-scenario")


# sha256 of the serialize_config text and the report's config_digest of
# each scenario. A change here changes the config_digest of every report
# on that scenario, so the table is not to be rewritten to pass.
GOLDEN_DIGESTS = {
    "fig1": (
        "c7ef05d8d06a0ffdb7bc1c215ae2989eeb4fbc359a6872619a24ad928639c359",
        "b7cd04f4dcbf3e16a6dc63999a82374f1bef3967411cbaec1598d2504c5bc49f",
    ),
    "fig1-at-point": (
        "c46418cb1fc93ea2f69d8850244c5a428ed39135fdc7ad7cd8c02d40d2df7c24",
        "8349d24c56a7a9d229eb245b59baa323f5d8781dc5bede80a7c342a432ada66b",
    ),
    "hidden-shift": (
        "83d737e6bab061675eb0a5f0ab701a802a56bb2d5b5ed3d45a69a765cee0b6ce",
        "f56c797c3cd41f0f392293a7e589c0b39b6305b9cf4b819afaf4ed652db3955e",
    ),
    "jump-sample": (
        "a6e401532aeecbed5d8472e659502ae78b32b34f53bea2d21dd5d29c7d2bec2e",
        "809d05e71f8394a19997f4d6227c37d32dbdae737c8c8c8455af621914af8634",
    ),
    "long-qsd": (
        "236e3cd534011e83655ccfdd594b7ef57d81195722fa6567d7106ee3b6e4cc99",
        "bf42971e917b606c1faf6309cf964dbc498f5b78e591c67db336141af97c019e",
    ),
    "nojump-sweep": (
        "461012b6ab9242acad0c4c2c3950e9c41a37e50350fe04f72d91491c6ef00a9a",
        "4b058b0529bce4536e34406cf64ef2aa729270d4557d2ffc61cd457c7c93ccc2",
    ),
    "qsd-phase": (
        "6ea0abc77186072255ea3edf1c581635ce93865d806456ceebdfba783fdf0e90",
        "f5fca0aec52ae7a5ff69e78e757a3a26a2602b12cacf4dde60d7d4e8cb51e09c",
    ),
    "visible-shift": (
        "87a985ecd330a6f3d3b13f9b01a51d18487ba552a9c2273eee3657f40f57274b",
        "470c3346e8871d7d8f6cf1c16857671ae89a07ff332067bddea5c24f6404f62d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_config_digests_are_stable(name: str) -> None:
    if name == "fig1":
        cfg = load_config("fig1")
    elif name == "fig1-at-point":
        cfg = load_config("fig1").at_point(f=0.2, theta0=1.0, **{"lambda": 0.25})
    else:
        cfg = load_config(Path(__file__).parent / "contract" / f"{name}.yaml")
    text_digest = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
    assert (text_digest, _config_digest(cfg)) == GOLDEN_DIGESTS[name]


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
