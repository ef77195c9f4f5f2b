"""Properties over random inputs: the unraveling freedoms and the chunk-size
invariance of both ensembles over random small models (dim 2-4, 1-3
channels, coupling strength at most 0.5), and the serialize/parse round
trip over random scenarios. Hypothesis runs a fixed set of examples
(derandomize=True), so the suite stays deterministic; an example that
raises fails the test."""

from __future__ import annotations

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajphase.config import parse_config, serialize_config
from trajphase.jump import average_jump_ensemble, gauge_transform_check, no_jump_geometric_phase
from trajphase.lindblad import LindbladModel, ShiftSet, apply_unitary_mixing
from trajphase.operators import Operator, wrap_phase
from trajphase.qsd import QSDConfig, averaged_geometric_phases

# Criterion 10's tolerance.
TOL = 1e-8
PROPERTY = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def _matrix(rng, dim: int) -> np.ndarray:
    return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim


@st.composite
def open_systems(draw):
    """(model, normalized initial state, total time, rng for further draws)."""
    dim = draw(st.integers(2, 4))
    count = draw(st.integers(1, 3))
    strength = draw(st.floats(0.0, 0.5))
    total_time = draw(st.floats(0.2, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = _matrix(rng, dim)
    channels = tuple(Operator(_matrix(rng, dim)) for _ in range(count))
    model = LindbladModel(Operator(h + h.conj().T), channels, strength)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return model, vec / np.linalg.norm(vec), total_time, rng


def _complex(low: float, high: float):
    part = st.floats(low, high)
    return st.builds(complex, part, part)


@PROPERTY
@given(
    open_systems(),
    _complex(-1.0, 1.0),
    st.floats(0.1, 10.0),
    st.floats(-np.pi, np.pi),
)
def test_gauge_rescaling_leaves_the_phase_unchanged(system, log_rate, size, angle) -> None:
    model, vec, total_time, _ = system
    scale = size * np.exp(1j * angle)
    base, transformed = gauge_transform_check(
        model, vec, total_time, log_rate=log_rate, scale=scale
    )
    assert abs(wrap_phase(transformed - base)) <= TOL


@PROPERTY
@given(open_systems())
def test_unitary_channel_mixing_leaves_the_phase_unchanged(system) -> None:
    model, vec, total_time, rng = system
    count = len(model.lindblads)
    q, _ = np.linalg.qr(_matrix(rng, count))
    mixed = apply_unitary_mixing(model, q)
    base = no_jump_geometric_phase(model, vec, total_time)
    other = no_jump_geometric_phase(mixed, vec, total_time)
    assert abs(wrap_phase(other.phase - base.phase)) <= TOL


@st.composite
def chunked_ensembles(draw, threads: str):
    """(system, shifts, steps, trajectories, chunk size, seed); with more
    than one thread the chunk size leaves at least two chunks."""
    model, vec, total_time, rng = draw(open_systems())
    count = len(model.lindblads)
    shifts = ShiftSet.constants(list(rng.normal(size=count) + 1j * rng.normal(size=count)))
    steps = draw(st.integers(20, 50))
    trajectories = draw(st.integers(1 if threads == "1" else 2, 12))
    largest = trajectories if threads == "1" else trajectories // 2
    chunk = draw(st.integers(1, largest))
    return (model, vec, total_time), shifts, steps, trajectories, chunk, draw(st.integers(0, 999))


def _check_chunk_invariance(case, threads: str) -> None:
    (model, vec, total_time), shifts, steps, trajectories, chunk, seed = case
    # total_time / steps divides the run, so no grid snaps.
    delta_t = total_time / steps
    config = QSDConfig(total_time, delta_t, trajectories, seed)

    def run(size: int) -> tuple:
        qsd = averaged_geometric_phases(model, vec, config, [None, shifts], chunk_size=size)
        jumps = average_jump_ensemble(
            model, vec, total_time, delta_t, trajectories, seed, shifts, chunk_size=size
        )
        return qsd, jumps.jump_counts

    whole, whole_counts = run(trajectories)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TRAJPHASE_THREADS", threads)
        split, split_counts = run(chunk)
    for a, b in zip(whole, split):
        assert (a.n_used, a.n_excluded) == (b.n_used, b.n_excluded)
        assert abs(a.overlap_arg - b.overlap_arg) <= 1e-12
        assert abs(a.phase - b.phase) <= 1e-12
        assert abs(wrap_phase(b.overlap_arg - np.angle(b.mean_overlap))) <= 1e-12
    assert split_counts.tobytes() == whole_counts.tobytes()


@PROPERTY
@given(chunked_ensembles("1"))
def test_ensembles_are_invariant_to_the_chunk_size(case) -> None:
    _check_chunk_invariance(case, "1")


@settings(PROPERTY, max_examples=3)
@given(chunked_ensembles("2"))
def test_ensembles_are_invariant_to_the_chunk_size_across_workers(case) -> None:
    _check_chunk_invariance(case, "2")


_NUMBER = st.floats(-10.0, 10.0, allow_subnormal=False)
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)


def _matrix_literal(dim: int):
    entry = st.one_of(_NUMBER, _PAIR)
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def _hermitian_literal(draw, dim: int):
    """A Hermitian matrix literal: real diagonal, each entry above it a
    number or an [re, im] pair, mirrored below as its conjugate."""
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = draw(_NUMBER)
        for j in range(i + 1, dim):
            entry = draw(st.one_of(_NUMBER, _PAIR))
            rows[i][j] = entry
            rows[j][i] = [entry[0], -entry[1]] if isinstance(entry, list) else entry
    return rows


def _shift_literal():
    value = st.one_of(_NUMBER, _PAIR)
    piecewise = st.fixed_dictionaries(
        {"cell": st.floats(0.01, 5.0), "values": st.lists(value, min_size=1, max_size=4)}
    )
    return st.one_of(value, piecewise)


def _sweep_axis(low: float, high: float):
    values = st.floats(low, high, allow_subnormal=False)
    spaced = st.fixed_dictionaries(
        {"start": values, "stop": values, "count": st.integers(1, 5)}
    )
    return st.one_of(st.lists(values, min_size=1, max_size=4), spaced)


@st.composite
def scenarios(draw):
    """A random valid scenario document, as YAML text."""
    precession = draw(st.booleans())
    dim = 2 if precession else draw(st.integers(2, 3))
    if precession:
        hamiltonian = {"preset": "precession", "omega": draw(_NUMBER)}
    else:
        hamiltonian = {"matrix": draw(_hermitian_literal(dim))}
    presets = ["annihilation"]
    if dim == 2:
        presets += ["sigma_x", "sigma_y", "sigma_z", "sigma_minus"]
    literal = st.builds(lambda m: {"matrix": m}, _matrix_literal(dim))
    channel = st.one_of(st.sampled_from(presets), literal)
    lindblads = draw(st.lists(channel, min_size=1, max_size=3))
    doc = {
        "model": {
            "dim": dim,
            "hamiltonian": hamiltonian,
            "lindblads": lindblads,
            "lambda": draw(st.floats(0.0, 5.0)),
        }
    }
    if draw(st.booleans()):
        count = len(lindblads)
        doc["shifts"] = draw(st.lists(_shift_literal(), min_size=count, max_size=count))
    if dim == 2 and draw(st.booleans()):
        doc["initial_state"] = {"theta": draw(st.floats(0.0, np.pi)), "phi": draw(_NUMBER)}
    else:
        # Any vector but zero, tiny ones whose squared norm underflows included.
        vectors = st.lists(_PAIR, min_size=dim, max_size=dim)
        amplitudes = draw(vectors.filter(lambda a: np.max(np.abs(a)) > 0))
        doc["initial_state"] = {"amplitudes": amplitudes}
    run = {}
    for key, value in (
        ("T", st.floats(0.0, 10.0)),
        ("steps", st.integers(1, 10_000)),
        ("delta_t", st.floats(1e-4, 1.0)),
        ("n_trajectories", st.integers(1, 10_000)),
        ("seed", st.integers(0, 2**31)),
    ):
        if draw(st.booleans()):
            run[key] = draw(value)
    doc["run"] = run
    axes = {"f": _sweep_axis(-5.0, 5.0), "lambda": _sweep_axis(0.0, 5.0)}
    if "theta" in doc["initial_state"]:
        axes["theta0"] = _sweep_axis(0.0, np.pi)
    names = draw(st.lists(st.sampled_from(sorted(axes)), max_size=2, unique=True))
    if names:
        doc["sweep"] = {name: draw(axes[name]) for name in names}
    return yaml.safe_dump(doc)


# -1e-17 % 2 pi rounds to 2 pi itself, which the next parse would read as 0.
TINY_NEGATIVE_PHI = """\
model: {dim: 2, hamiltonian: {preset: precession, omega: 1.0}, lindblads: [sigma_z], lambda: 0.5}
initial_state: {theta: 1.0, phi: -1.0e-17}
"""


@PROPERTY
@given(scenarios())
@example(TINY_NEGATIVE_PHI)
def test_serialized_scenarios_parse_back_to_themselves(text) -> None:
    cfg = parse_config(text)
    dumped = serialize_config(cfg)
    again = parse_config(dumped)
    assert again.to_mapping() == cfg.to_mapping()
    assert serialize_config(again) == dumped
    # libyaml and the pure-Python classes read and write the same documents.
    assert yaml.load(dumped, Loader=yaml.SafeLoader) == cfg.to_mapping()
    assert yaml.dump(cfg.to_mapping(), Dumper=yaml.SafeDumper, sort_keys=True) == dumped
