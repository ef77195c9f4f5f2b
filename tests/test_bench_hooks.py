"""The benchmark's tracer wraps names as trajphase's modules see them
(`bench/tracing.py` PATCHES); each must resolve, or a traced bench run
fails. This only reads bench/."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves() -> None:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    missing = [
        f"trajphase.{module}.{attr}"
        for module, attr, _ in tracing.PATCHES
        if not hasattr(importlib.import_module(f"trajphase.{module}"), attr)
    ]
    assert missing == []
