"""Paths, thread pinning and package import shared by the benchmark scripts.

Importing this module touches nothing; the scripts call ``pin_threads``
before numpy is imported and ``import_package`` to load filmcasimir from
the checkout's own ``src`` directory.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".bench_out"

# BLAS/OpenMP pools would otherwise size themselves to the shared cores and
# make timings depend on what else runs on the machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports the checkout's package."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def import_package():
    """Import filmcasimir from ``src`` of this checkout, never from elsewhere."""
    init = SRC / "filmcasimir" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import filmcasimir

    if Path(filmcasimir.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported filmcasimir from {filmcasimir.__file__}, not {init}")
    return filmcasimir


def src_lines() -> int:
    """Line count of the package sources, as ``wc -l`` gives it."""
    return sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py")))
