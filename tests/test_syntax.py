"""Every Python file of the package, its tests and its benchmark parses as
Python 3.10, the oldest interpreter `pyproject.toml` allows.

This checks the grammar only: a NumPy or standard-library API that a newer
interpreter or library provides is not caught here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_sources_are_found() -> None:
    assert any(p.name == "operators.py" for p in SOURCES)
    assert any(p.parent.name == "bench" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path) -> None:
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
