"""Paths and process environment shared by the benchmark scripts."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# One thread per process: the machine has few cores and runs one workload
# process (or one CLI process) next to the idle run.py at a time.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def source_present() -> bool:
    return (SRC / "planarlab" / "__init__.py").is_file()


def import_planarlab():
    """Import the package from this checkout's src/, never another copy."""
    if not source_present():
        raise SystemExit(f"planarlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import planarlab

    if Path(planarlab.__file__).resolve().parent != SRC / "planarlab":
        raise SystemExit(f"imported planarlab from {planarlab.__file__}, not {SRC}")
    return planarlab
