"""cli-session workload: an analyst's fixed list of CLI calls.

Each call runs in a fresh ``python -m branchpcr`` process, one at a time, so
every call pays the package import. The traced run replays the same list
in-process through ``cli.main`` after one import.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time

import numpy as np

import checks
from common import MU, REF_ELL, REF_LAMBDAS, REF_S0, source_env

ACC7_LAMBDAS = [0.4] * 8          # acceptance 7: S0 = 2, n = 8, Poisson(0.1)
MM = {"C": 1000.0, "D": 1001.0, "S0": 1, "n": 50}   # acceptance 8
HARMONIC_TABLE = {"k_max": 12, "lambdas": [0.3, 0.7], "y": 1.0}
ACC7_REPLICATES = 400
CALL_TIMEOUT_S = 60


def build_inputs(seed: int, workdir) -> dict:
    """Write the three run configurations; return the call list and its inputs."""
    rng = np.random.default_rng(seed)
    mutations = int(rng.integers(10, 31))
    ref = {
        "s0": REF_S0, "n": len(REF_LAMBDAS),
        "schedule": {"lambdas": REF_LAMBDAS},
        "mutation": {"poisson": {"mu": MU}},
        "sample": {"ell": REF_ELL, "mutations_total": mutations},
        "z": 2.0,
    }
    acc7 = {
        "s0": 2, "n": len(ACC7_LAMBDAS),
        "schedule": {"lambdas": ACC7_LAMBDAS},
        "mutation": {"poisson": {"mu": 0.1}},
        "replicates": ACC7_REPLICATES,
    }
    mm = {
        "s0": MM["S0"], "n": MM["n"],
        "schedule": {"mm": {"C": MM["C"], "D": MM["D"]}},
        "mutation": {"poisson": {"mu": MU}},
    }
    paths = {}
    for name, cfg in (("ref", ref), ("acc7", acc7), ("mm", mm)):
        paths[name] = str(workdir / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    sim_seed = str(seed % 2**32)
    table = HARMONIC_TABLE
    calls = [
        ("estimate_golden", ["estimate", "--golden-saiki"]),
        ("estimate", ["estimate", "--config", paths["ref"]]),
        ("bounds", ["bounds", "--config", paths["ref"]]),
        ("bounds_csv", ["bounds", "--config", paths["ref"], "--format", "csv"]),
        ("simulate_tv", ["simulate", "--config", paths["acc7"], "--seed", sim_seed,
                         "--threads", "1", "--tv"]),
        ("property_check", ["harmonic", "--property-check"]),
        ("harmonic_table", ["harmonic", "--k-max", str(table["k_max"]),
                            "--lambdas", ",".join(str(x) for x in table["lambdas"]),
                            "--y", str(table["y"])]),
        ("mm", ["mm", "--config", paths["mm"]]),
    ]
    return {"calls": calls, "t": mutations / REF_ELL}


def run_round(inputs: dict) -> tuple[dict, dict]:
    """One pass through the call list, each call in a fresh process.

    Returns the outputs and the wall seconds of each call.
    """
    env = source_env()
    outputs, walls = {}, {}
    for label, argv in inputs["calls"]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "branchpcr", *argv], env=env,
                                  capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            outputs[label] = (-1, "", f"no exit within {CALL_TIMEOUT_S} s")
            continue
        walls[label] = time.perf_counter() - t0
        outputs[label] = (proc.returncode, proc.stdout, proc.stderr)
    return outputs, walls


def traced_round(inputs: dict, tracer=None) -> dict:
    """The same pass through ``cli.main`` in this process, one span per call."""
    from branchpcr import cli

    outputs = {}
    for label, argv in inputs["calls"]:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"call.{label}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        outputs[label] = (code, out.getvalue(), err.getvalue())
    return outputs


def check(inputs: dict, outputs: dict) -> tuple[list[str], list[str]]:
    """Return (failed calls, check failures on the calls that succeeded)."""
    failed: list[str] = []
    bad: list[str] = []
    parsed = {}
    for label, (code, stdout, stderr) in outputs.items():
        if code != 0:
            failed += checks.check_exit(label, code, stderr)
            continue
        if label == "bounds_csv":
            parsed[label] = stdout
            continue
        try:
            parsed[label] = checks.parse_strict_json(stdout)
        except ValueError as exc:
            bad.append(f"{label}: stdout is not strict JSON: {exc}")
    table = HARMONIC_TABLE
    runners = {
        "estimate_golden": lambda p: checks.check_golden(p),
        "estimate": lambda p: checks.check_estimate(p, REF_LAMBDAS, inputs["t"]),
        "bounds": lambda p: checks.check_bounds(p, REF_LAMBDAS),
        "bounds_csv": lambda p: (checks.check_bounds_csv(p, parsed["bounds"])
                                 if "bounds" in parsed else []),
        "simulate_tv": lambda p: checks.check_simulate("simulate_tv", p, tv=True),
        "property_check": checks.check_property,
        "harmonic_table": lambda p: checks.check_harmonic_table(
            p, table["k_max"], table["lambdas"], table["y"]),
        "mm": lambda p: checks.check_mm(p, MM["C"], MM["D"], MM["S0"], MM["n"]),
    }
    for label, payload in parsed.items():
        try:
            bad += runners[label](payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            bad.append(f"{label}: malformed output ({exc!r})")
    return failed, bad
