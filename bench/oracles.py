"""oracles workload: the exact programs, with one import and no simulation.

The size-law and moment dynamic programs run at S0 = 2, n = 11, the largest
S0 = 2 scale that keeps a round within seconds (cost grows about 5x per
cycle). Their inputs are fixed: the programs skip zero-probability sizes, so
the cost follows the underflow pattern of the schedule, and a schedule drawn
from the seed would make the timing depend on the seed. The seed picks the
schedules of the brute-force cross-checks instead.
"""

from __future__ import annotations

import contextlib

import numpy as np

import checks
from branchpcr import harmonic, moments, schedule, simulator
from common import MU, timed

S0, N, ELL = 2, 11, 10
LAMBDAS = [0.5] * N
QUAD_LAMBDAS = [round(0.1 * i, 1) for i in range(1, 10)]    # acceptance 4 grid
QUAD_K = range(1, 41)
HARMONIC_SHIFTS = (0.0, 1.0, 5.0, -1.0)

# operation -> calls per round. The short call groups run more than once per
# round so that each takes a similar share of the round.
CALLS = {"size_law": 2, "exact_vn": 1, "exact_moments": 1, "ineq_grid": 1, "quadrature": 3}


def build_inputs(seed: int, workdir=None) -> dict:
    sched = schedule.build_schedule(LAMBDAS)
    rng = np.random.default_rng(seed)
    tiny = [(s0, [float(x) for x in rng.uniform(0.05, 0.95, size=n)])
            for s0 in (1, 2) for n in (1, 2, 3, 4)]
    return {"sched": sched, "seqs": schedule.derived_sequences(sched, N),
            "law": moments.poisson_law(MU), "tiny": tiny}


def _quadrature_grid() -> list[tuple[int, float, float]]:
    return [(k, lam, harmonic.A_integral(k, 1, lam)) for lam in QUAD_LAMBDAS for k in QUAD_K]


def _operations(inputs: dict):
    sched, law = inputs["sched"], inputs["law"]
    yield "size_law", lambda: moments.size_law(sched, S0, N)
    yield "exact_vn", lambda: moments.exact_Vn_Vpn(sched, S0, N)
    yield "exact_moments", lambda: moments.exact_sample_moments(sched, law, S0, N, ELL)
    yield "ineq_grid", harmonic.inequality_violations
    yield "quadrature", _quadrature_grid


def run_round(inputs: dict, tracer=None) -> tuple[dict, dict]:
    """Every call group; returns the outputs and the wall seconds of each group."""
    outputs, walls = {}, {}
    for name, op in _operations(inputs):
        wall = 0.0
        try:
            for _ in range(CALLS[name]):
                with tracer.span(f"op.{name}") if tracer else contextlib.nullcontext():
                    result, seconds = timed(op)
                wall += seconds
        except (ValueError, RuntimeError) as exc:
            outputs[name] = exc
            continue
        outputs[name] = result
        walls[name] = wall
    return outputs, walls


def traced_round(inputs: dict, tracer=None) -> dict:
    return run_round(inputs, tracer)[0]


def check(inputs: dict, outputs: dict) -> tuple[list[str], list[str]]:
    """Return (failed operations, check failures on the operations that succeeded)."""
    failed = [f"{name}: {out!r}" for name, out in outputs.items() if isinstance(out, Exception)]
    bad: list[str] = []
    ok = {name: out for name, out in outputs.items() if not isinstance(out, Exception)}
    sched = inputs["sched"]
    if "size_law" in ok:
        slaw = ok["size_law"]
        bad += checks.check_size_law(slaw.sizes, slaw.probs, LAMBDAS, S0)
        bounds = {y: harmonic.harmonic_moment_bounds(sched, S0, N, y) for y in HARMONIC_SHIFTS}
        bad += checks.check_harmonic_moments(
            {y: (slaw.harmonic_moment(y), b.lower, b.upper) for y, b in bounds.items()})
    if "exact_vn" in ok:
        Vn = ok["exact_vn"][1]
        bad += checks.check_Vn(Vn, LAMBDAS, S0)
        if "exact_moments" in ok:
            bad += checks.check_first_moment(MU, LAMBDAS, Vn, ok["exact_moments"].Et)
    cases = []
    for s0, lams in inputs["tiny"]:
        tsched = schedule.build_schedule(lams)
        cases.append((f"S0={s0} lambdas={lams}",
                      moments.exact_sample_moments(tsched, inputs["law"], s0, len(lams), 3),
                      simulator.enumerate_tiny(tsched, inputs["law"], s0, len(lams), ell=3)))
    bad += checks.check_tiny(cases)
    if "ineq_grid" in ok:
        bad += checks.check_violations(ok["ineq_grid"])
    if "quadrature" in ok:
        bad += checks.check_quadrature(
            [(k, lam, integral, harmonic.A(k, lam)) for k, lam, integral in ok["quadrature"]])
    return failed, bad
