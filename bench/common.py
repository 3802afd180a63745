"""Paths, the reference schedule and small timing helpers shared by the workloads."""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The 30-cycle three-phase schedule of the built-in reference analysis
# (src/branchpcr/data/golden_saiki.json), S0 = 100.
REF_LAMBDAS = [0.872] * 20 + [0.743] * 5 + [0.146] * 5
REF_S0 = 100
REF_ELL = 28
MU = 0.05


def use_source_tree() -> None:
    """Import branchpcr from this checkout's src/ and nowhere else.

    Raises FileNotFoundError when the checkout carries no source tree, so the
    benchmark exits non-zero instead of measuring some other installation.
    """
    if not (SRC / "branchpcr" / "__init__.py").is_file():
        raise FileNotFoundError(f"no branchpcr source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_env() -> dict[str, str]:
    """Environment for a child Python process that imports branchpcr from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def timed(fn, *args, **kwargs):
    """Run fn once after a full collection; return (result, wall seconds)."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def median(values) -> float:
    return float(statistics.median(values))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
