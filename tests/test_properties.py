"""Unraveling freedoms as properties over random small models: dim 2-4,
1-3 channels, coupling strength at most 0.5. Hypothesis runs a fixed set of
examples (derandomize=True), so the suite stays deterministic; an example
that raises fails the test."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajphase.jump import gauge_transform_check, no_jump_geometric_phase
from trajphase.lindblad import LindbladModel, apply_unitary_mixing
from trajphase.operators import Operator, wrap_phase

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
