"""Process set-up shared by the benchmark scripts.

`pin_threads` must run before NumPy is imported anywhere in the process:
BLAS reads its thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One worker and one BLAS thread: the machine this was sized on has two
# cores shared with other jobs, and the library's default is one worker.
THREAD_ENV = {
    "TRAJPHASE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


def load_trajphase():
    """Import trajphase from this checkout's src/, or exit with status 2.

    An installed copy elsewhere must never stand in for the code under test.
    """
    package = SRC / "trajphase" / "__init__.py"
    if not package.is_file():
        print(f"bench: no package source at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import trajphase

    if Path(trajphase.__file__).resolve() != package.resolve():
        print(f"bench: imported {trajphase.__file__}, not {package}", file=sys.stderr)
        raise SystemExit(2)
    return trajphase


def environment() -> dict:
    """Versions and thread settings the numbers were taken with."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "machine": platform.machine(),
    }
