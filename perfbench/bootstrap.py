"""Process set-up shared by the benchmark's entry scripts.

``prepare`` must run before numpy is imported: it caps the BLAS thread pools
at the cores this process may use, and puts this checkout's ``src/`` first on
the import path so that the benchmark measures the code beside it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    cores = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cores:
            os.environ[var] = str(cores)
    sys.path.insert(0, str(ROOT / "src"))


def import_program():
    """Import hscmae from this checkout; exit 2 when it is missing or when
    the import resolves to a copy elsewhere."""
    try:
        import hscmae.cli  # noqa: F401
    except ImportError as exc:
        print(f"benchmark: cannot import hscmae from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    import hscmae
    where = Path(hscmae.__file__).resolve().parent.parent
    if where != ROOT / "src":
        print(f"benchmark: hscmae resolved to {where}, not {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def machine():
    """The figures a reference measurement needs beside it."""
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
