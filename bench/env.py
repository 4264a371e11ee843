"""Process set-up shared by the benchmark's entry scripts.

``setup()`` must run before numpy is imported: it pins the BLAS/OpenMP
thread pools and makes ``import cdmine`` load the checkout's own sources.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def setup():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "cdmine" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cdmine sources in {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def check_imported(module):
    """Refuse to measure a cdmine that is not the checkout's own."""
    if SRC not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"bench: imported {module.__file__}, not the checkout's src/")
