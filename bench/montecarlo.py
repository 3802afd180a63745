"""montecarlo workload: library Monte Carlo on five instances.

The instances use the simulator in different ways: many small populations
against a few huge ones, multinomial against binomial increments, final
state only against intermediate snapshots, fixed against size-dependent
efficiencies. Every call runs with ``threads=1``; each replicate is seeded
by ``(seed, replicate)``.
"""

from __future__ import annotations

import contextlib

import numpy as np

import checks
from branchpcr import kinetics, moments, schedule, simulator
from common import MU, REF_ELL, REF_LAMBDAS, REF_S0, timed

POPULATION_CAP = 10**10     # the reference instance ends near 9e8 particles
MM_MARKS = (10, 50)

# name -> (lambdas, law, S0, n, ell, replicates, collect histogram)
SMALL = {
    # acceptance 6: Poisson increments, drawn from the multinomial table sampler
    "poisson": ([0.5] * 10, moments.poisson_law(MU), 2, 10, 10, 2048, False),
    # the same schedule with a two-point law: binomial increments
    "twopoint": ([0.5] * 10, moments.MutationLaw(mu=MU, nu=0.2), 2, 10, 10, 2048, False),
    # acceptance 7 at S0 = 2, with the pooled state histogram
    "hist": ([0.4] * 8, moments.poisson_law(0.1), 2, 8, 1, 2048, True),
}
REFERENCE_REPLICATES = 384
MM_PARAMS = kinetics.MMParams(C=1000.0, D=1001.0, S0=1)    # acceptance 8
MM_CYCLES = 50
MM_TRAJECTORIES = 384

def build_inputs(seed: int, workdir=None) -> dict:
    """Process specs and derived sequences; ``seed`` keys every replicate stream."""
    inputs = {"seed": seed % 2**32, "small": {}}
    for name, (lams, law, S0, n, ell, reps, hist) in SMALL.items():
        sched = schedule.build_schedule(lams)
        inputs["small"][name] = {
            "spec": simulator.ProcessSpec(sched, law, S0), "sched": sched,
            "seqs": schedule.derived_sequences(sched, n), "law": law,
            "S0": S0, "n": n, "ell": ell, "reps": reps, "hist": hist,
        }
    ref_sched = schedule.build_schedule(REF_LAMBDAS)
    inputs["reference"] = {
        "spec": simulator.ProcessSpec(ref_sched, moments.poisson_law(MU), REF_S0),
        "seqs": schedule.derived_sequences(ref_sched, len(REF_LAMBDAS)),
    }
    inputs["mm"] = simulator.ProcessSpec(MM_PARAMS.as_schedule(), moments.poisson_law(MU),
                                         MM_PARAMS.S0)
    return inputs


def _mm_trajectories(spec, seed: int) -> dict:
    """Acceptance-8 loop: w_m and one sampled state at each cycle mark."""
    w = {m: [] for m in MM_MARKS}
    t = {m: [] for m in MM_MARKS}
    for rep in range(MM_TRAJECTORIES):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, rep))))
        traj = simulator.simulate(spec, MM_CYCLES, rng)
        lams = np.array(traj[-1].realized_lambdas)
        alphas = lams / (1.0 + lams)
        for m in MM_MARKS:
            w[m].append(float(alphas[:m].sum()))
            t[m].append(float(simulator.draw_sample(traj[m], 1, rng)[0]))
    return {"w": w, "t": t}


def _operations(inputs: dict):
    seed = inputs["seed"]
    for name, inst in inputs["small"].items():
        yield name, lambda inst=inst: simulator.monte_carlo_moments(
            inst["spec"], inst["n"], inst["ell"], inst["reps"], seed, threads=1,
            collect_histogram=inst["hist"])
    ref = inputs["reference"]
    yield "reference", lambda: simulator.monte_carlo_moments(
        ref["spec"], len(REF_LAMBDAS), REF_ELL, REFERENCE_REPLICATES, seed, threads=1,
        population_cap=POPULATION_CAP)
    yield "mm", lambda: _mm_trajectories(inputs["mm"], seed)


def run_round(inputs: dict, tracer=None) -> tuple[dict, dict]:
    """One call per instance; returns the outputs and the wall seconds of each call."""
    outputs, walls = {}, {}
    for name, op in _operations(inputs):
        try:
            with tracer.span(f"instance.{name}") if tracer else contextlib.nullcontext():
                result, wall = timed(op)
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
    for name, inst in inputs["small"].items():
        mc = outputs[name]
        if isinstance(mc, Exception):
            continue
        exact = moments.exact_sample_moments(inst["sched"], inst["law"], inst["S0"],
                                             inst["n"], inst["ell"])
        bad += checks.check_mc_exact(name, mc, exact, inst["S0"])
        if inst["hist"]:
            _, probs = simulator.eta_star_distribution(inst["seqs"], inst["law"], inst["n"])
            bad += checks.check_mc_hist(name, mc, probs, float(inst["seqs"].v[inst["n"]]),
                                        inst["S0"])
    ref = outputs["reference"]
    if not isinstance(ref, Exception):
        env = moments.moment_envelope(inputs["reference"]["seqs"], moments.poisson_law(MU),
                                      REF_S0, len(REF_LAMBDAS), REF_ELL)
        bad += checks.check_mc_reference("reference", ref, env.Et_lo, env.Et_hi,
                                         REF_LAMBDAS, REF_S0)
    mm = outputs["mm"]
    if not isinstance(mm, Exception):
        V = 1.5 if MM_PARAMS.S0 == 1 else 1.0 / (MM_PARAMS.S0 - 1)
        for m in MM_MARKS:
            wb = kinetics.w_bounds(MM_PARAMS, m)
            bad += checks.check_mm_marks("mm", m, mm["w"][m], [x / MU for x in mm["t"][m]],
                                         wb.lower, wb.upper, V)
    return failed, bad
