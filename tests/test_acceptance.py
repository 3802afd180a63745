"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Run with ``pytest -v -rA tests/test_acceptance.py`` to see the printed
ACCEPTANCE lines for passing criteria too.
"""

import time

import numpy as np
import pytest

from branchpcr import harmonic
from branchpcr.cli import run_golden_checks
from branchpcr.estimator import correction_ratio_report
from branchpcr.kinetics import MMParams, w_bounds
from branchpcr.moments import (
    exact_Vn_Vpn,
    exact_sample_moments,
    first_moment_envelope,
    moment_envelope,
    poisson_law,
    size_law,
    variance_envelope,
)
from branchpcr.schedule import build_schedule, derived_sequences
from branchpcr.simulator import (
    ProcessSpec,
    enumerate_tiny,
    envelope_checks,
    monte_carlo_moments,
    simulate_batch,
)


def report(idx, failures, summary, elapsed, limit):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {idx} {status}: {summary} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert not failures, "\n".join(failures)
    assert elapsed < limit, f"criterion {idx} exceeded {limit}s: {elapsed:.2f}s"


def check(failures, name, computed, expected, tol):
    if not abs(computed - expected) <= tol:
        failures.append(f"{name}: computed {computed!r}, expected {expected} +-{tol}")


def test_acceptance_1_reference_analysis():
    """30-cycle reference run reproduces every pinned table value."""
    t0 = time.perf_counter()
    checks, ok = run_golden_checks()
    elapsed = time.perf_counter() - t0
    failures = [
        f"{c['name']}: computed {c['computed']!r}, expected {c['expected']} "
        f"+-{c['tol']}" for c in checks if not c["pass"]
    ]
    report(1, failures, f"{len(checks)} pinned reference values", elapsed, 1.0)


def test_acceptance_2_decaying_ratio_constants():
    """Correction ratios on the decaying schedule lambda_k = 0.25/k.

    r'' = 0.770 and the upper multiplier 1.63 rest on the third correction
    sum v'' with its sharp per-cycle weight alpha_k (1 - lambda_k), the
    y = 1 route of the bound V_n <= v''_n/(S0 + 1).
    """
    t0 = time.perf_counter()
    rep25 = correction_ratio_report(
        derived_sequences(build_schedule([0.25 / k for k in range(1, 26)]), 25), 1, 25)
    rep5 = correction_ratio_report(
        derived_sequences(build_schedule([0.25 / k for k in range(1, 6)]), 5), 1, 5)
    rep10 = correction_ratio_report(
        derived_sequences(build_schedule([0.25 / k for k in range(1, 11)]), 10), 1, 10)
    elapsed = time.perf_counter() - t0
    failures = []
    check(failures, "r(25)", rep25.r, 0.495, 0.001)
    check(failures, "rpp(25)", rep25.rpp, 0.770, 0.001)
    check(failures, "lo multiplier", rep25.lo_multiplier, 1.33, 0.01)
    check(failures, "hi multiplier", rep25.hi_multiplier, 1.63, 0.01)
    check(failures, "r(5)", rep5.r, 0.521, 0.001)
    check(failures, "r(10)", rep10.r, 0.516, 0.001)
    report(2, failures, "6 correction-ratio constants", elapsed, 1.0)


def test_decaying_schedule_exact_multiplier():
    """The exact multiplier 1/(1 - V_n/W_n) of mu* lies in acceptance 2's bracket.

    On lambda_k = 0.25/k, S0 = 1, n = 25 the size law's generating function
    gives V_25 exactly, so the multiplier that the certified bracket
    [lo, hi] encloses is itself known.
    """
    sched = build_schedule([0.25 / k for k in range(1, 26)])
    seqs = derived_sequences(sched, 25)
    rep = correction_ratio_report(seqs, 1, 25)
    _, Vn, _ = exact_Vn_Vpn(sched, 1, 25)
    exact = 1.0 / (1.0 - Vn / float(seqs.W[25]))
    assert abs(exact - 1.60678) <= 5e-6
    assert abs(rep.lo_multiplier - 1.32901) <= 5e-6 and abs(rep.hi_multiplier - 1.62622) <= 5e-6
    assert rep.lo_multiplier <= exact <= rep.hi_multiplier


def test_acceptance_3_harmonic_inequality_suite():
    """Every harmonic-family inequality holds on the full grid at 1e-12."""
    t0 = time.perf_counter()
    violations = harmonic.inequality_violations()
    elapsed = time.perf_counter() - t0
    report(3, list(violations), "inequality grid k<=60, 20 efficiencies, 5 shifts",
           elapsed, 30.0)


def test_acceptance_4_integral_representation():
    """Adaptive quadrature reproduces A(k) and satisfies its recursion."""
    t0 = time.perf_counter()
    failures = []
    for lam in [round(0.1 * i, 1) for i in range(1, 10)]:
        for k in range(1, 41):
            got = lam * (1.0 - lam) * harmonic.A_integral(k, 1, lam)
            want = harmonic.A(k, lam)
            if abs(got - want) >= 1e-10:
                failures.append(f"A integral k={k} lam={lam}: |{got}-{want}|")
    lam = 0.3
    for k in range(1, 21):
        for ell in (1, 2, 3):
            lhs = (k + 1) * harmonic.A_integral(k, ell, lam)
            rhs = ((1.0 + lam) ** -(2 * ell + 1)
                   + 2.0 * lam * (2 * ell + 1) * harmonic.A_integral(k + 1, ell + 1, lam))
            if abs(lhs - rhs) >= 1e-10:
                failures.append(f"recursion k={k} ell={ell}: |{lhs}-{rhs}|")
    elapsed = time.perf_counter() - t0
    report(4, failures, "360 quadrature identities + 60 recursion residuals",
           elapsed, 30.0)


def test_acceptance_5_exact_oracles_agree():
    """Brute-force enumeration matches the closed-form dynamic program."""
    t0 = time.perf_counter()
    failures = []
    law = poisson_law(0.05)
    cases = 0
    for S0 in (1, 2):
        for lam in (0.25, 0.5, 0.9):
            for n in (1, 2, 3, 4):
                lams = [lam] * n
                sched = build_schedule(lams)
                seqs = derived_sequences(sched, n)
                tiny = enumerate_tiny(sched, law, S0, n, ell=1)
                dp = exact_sample_moments(sched, law, S0, n, 1)
                for f in ("Et", "Vt", "Rn"):
                    a, b = getattr(tiny, f), getattr(dp, f)
                    if abs(a - b) >= 1e-10:
                        failures.append(f"{f} S0={S0} lam={lam} n={n}: {a} vs {b}")
                fme = first_moment_envelope(seqs, law, S0, n)
                ve = variance_envelope(seqs, law, S0, n, 1)
                if not (fme.Et_lo - 1e-12 <= tiny.Et <= fme.Et_hi + 1e-12):
                    failures.append(f"Et outside envelope S0={S0} lam={lam} n={n}")
                if not (ve.Vt_lo - 1e-12 <= tiny.Vt <= ve.Vt_hi + 1e-12):
                    failures.append(f"Vt outside envelope S0={S0} lam={lam} n={n}")
                if not tiny.Rn <= ve.Rn_hi + 1e-12:
                    failures.append(f"Rn above bound S0={S0} lam={lam} n={n}")
                cases += 1
    elapsed = time.perf_counter() - t0
    report(5, failures, f"{cases} exact configurations at 1e-10", elapsed, 10.0)


def test_acceptance_6_monte_carlo_envelopes():
    """1e5 replicates land inside the analytic envelopes at 4 s.e."""
    t0 = time.perf_counter()
    n, S0, ell = 10, 2, 10
    lams = [0.5] * n
    sched = build_schedule(lams)
    seqs = derived_sequences(sched, n)
    law = poisson_law(0.05)
    spec = ProcessSpec(sched, law, S0)
    mc = monte_carlo_moments(spec, n, ell, replicates=100_000, seed=606, threads=4)
    fme = first_moment_envelope(seqs, law, S0, n)
    ve = variance_envelope(seqs, law, S0, n, ell)
    failures = []
    if not (fme.Et_lo - 4 * mc.t_se <= mc.t_mean <= fme.Et_hi + 4 * mc.t_se):
        failures.append(
            f"E(t) {mc.t_mean}+-{mc.t_se} outside [{fme.Et_lo}, {fme.Et_hi}]")
    if not (ve.Vt_lo - 4 * mc.t_var_se <= mc.t_var <= ve.Vt_hi + 4 * mc.t_var_se):
        failures.append(
            f"V(t) {mc.t_var}+-{mc.t_var_se} outside [{ve.Vt_lo}, {ve.Vt_hi}]")
    if abs(mc.martingale_mean - S0) > 4 * mc.martingale_se:
        failures.append(
            f"martingale mean {mc.martingale_mean}+-{mc.martingale_se} vs {S0}")
    slaw = size_law(sched, S0, n)
    for y in (0.0, 1.0, 5.0, -1.0):
        bounds = harmonic.harmonic_moment_bounds(sched, S0, n, y)
        exact = slaw.harmonic_moment(y)
        if not (bounds.lower - 1e-12 <= exact <= bounds.upper + 1e-12):
            failures.append(
                f"harmonic y={y}: {exact} outside [{bounds.lower}, {bounds.upper}]")
    elapsed = time.perf_counter() - t0
    report(6, failures, "moment + martingale + harmonic containment", elapsed, 120.0)


def test_acceptance_7_total_variation_bound():
    """Pooled empirical state law sits within the certified TV radius."""
    t0 = time.perf_counter()
    n = 8
    lams = [0.4] * n
    sched = build_schedule(lams)
    seqs = derived_sequences(sched, n)
    law = poisson_law(0.1)
    failures = []
    tvs = []
    for S0 in (2, 5):
        spec = ProcessSpec(sched, law, S0)
        mc = monte_carlo_moments(spec, n, 1, replicates=100_000, seed=707,
                                 threads=1, collect_histogram=True)
        _, record = envelope_checks(mc, moment_envelope(seqs, law, S0, n, 1), seqs, law)
        tv = record["distance"]
        bound = float(seqs.v[n]) / (S0 - 1) + 4.0 * record["mc_error"]
        tvs.append(f"S0={S0} TV {tv:.6g} <= {bound:.6g}")
        if not tv <= bound:
            failures.append(f"S0={S0}: TV {tv} above {bound}")
    elapsed = time.perf_counter() - t0
    report(7, failures, "TV distance under v_n/(S0-1) + 4 mc error: " + ", ".join(tvs),
           elapsed, 120.0)


def test_acceptance_8_saturating_growth_bounds():
    """Saturating-efficiency trajectories respect the log envelopes."""
    t0 = time.perf_counter()
    params = MMParams(C=1000.0, D=1001.0, S0=1)
    law = poisson_law(0.05)
    spec = ProcessSpec(params.as_schedule(), law, params.S0)
    reps = 10_000
    marks = (10, 50)
    batches = simulate_batch(spec, 50, reps, 808, marks=marks)
    rng = np.random.Generator(np.random.Philox(808))
    w_bar, t_bar = {}, {}
    for m, batch in zip(marks, batches):
        w_bar[m] = float(np.mean(np.sum(batch.lambdas / (1.0 + batch.lambdas), axis=1)))
        t_bar[m] = float(np.mean(batch.sample_means(1, rng)))
    failures = []
    for m in marks:
        wb = w_bounds(params, m)
        ratio = t_bar[m] / law.mu
        if not wb.lower <= w_bar[m] <= wb.upper:
            failures.append(f"n={m}: w {w_bar[m]} outside [{wb.lower}, {wb.upper}]")
        if not wb.lower - 1.5 <= ratio <= wb.upper:
            failures.append(
                f"n={m}: E(t)/mu {ratio} outside [{wb.lower - 1.5}, {wb.upper}]")
    elapsed = time.perf_counter() - t0
    report(8, failures, f"{reps} trajectories, cycle marks {marks}", elapsed, 120.0)


def test_acceptance_9_variance_floor():
    """Growing the draw count cannot shrink V(mu_star) past the floor."""
    t0 = time.perf_counter()
    n, S0 = 10, 2
    lams = [0.5] * n
    sched = build_schedule(lams)
    seqs = derived_sequences(sched, n)
    spec = ProcessSpec(sched, poisson_law(0.05), S0)
    W2 = float(seqs.W[n]) ** 2
    var = {}
    for ell in (100, 10_000):
        mc = monte_carlo_moments(spec, n, ell, replicates=4000, seed=909, threads=4)
        var[ell] = mc.t_var / W2
    failures = []
    ratio = var[10_000] / var[100]
    if not ratio > 0.25:
        failures.append(
            f"V(mu_star) ratio {ratio} = {var[10_000]}/{var[100]} not above 0.25")
    elapsed = time.perf_counter() - t0
    report(9, failures, f"100x more draws keeps {100 * ratio:.0f}% of the variance",
           elapsed, 180.0)
