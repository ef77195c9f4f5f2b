"""The benchmark's tracer wraps names as trajphase's modules see them
(`bench/tracing.py` PATCHES); each must resolve, or a traced bench run
fails, and each import kept only for it must be one of them. This only
reads bench/."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
SOURCE = ROOT / "src" / "trajphase"


def _patches() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


def test_every_traced_name_resolves() -> None:
    patches = _patches()
    assert patches
    missing = [
        f"trajphase.{module}.{attr}"
        for module, attr, _ in patches
        if not hasattr(importlib.import_module(f"trajphase.{module}"), attr)
    ]
    assert missing == []


def test_every_unused_import_is_a_traced_name() -> None:
    # An import marked unused (noqa: F401) is kept only so that the tracer
    # can wrap it on that module; one that PATCHES does not name has
    # outlived its reason.
    unused = set()
    for path in SOURCE.glob("*.py"):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            if isinstance(node, ast.ImportFrom) and marked:
                unused |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    traced = {(module, attr) for module, attr, _ in _patches()}
    assert sorted(unused - traced) == []
