"""Point estimate, brackets, intervals, and design guidance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from branchpcr.estimator import (
    chebyshev_interval,
    correction_ratio_report,
    estimate_report,
    finite_population_bracket,
    negligibility,
    point_estimate,
    poisson_interval,
    sample_size_guidance,
)
from branchpcr.moments import exact_Vn_Vpn, moment_envelope, poisson_law
from branchpcr.schedule import build_schedule, derived_sequences
from branchpcr.simulator import ProcessSpec, monte_carlo_moments

REF_LAMBDAS = [0.872] * 20 + [0.743] * 5 + [0.146] * 5
REF_T = 17.0 / 28.0  # 17 mutations across 28 draws
REF_ELL = 28


def ref_seqs():
    return derived_sequences(build_schedule(REF_LAMBDAS), 30)


def seqs_for(lams):
    return derived_sequences(build_schedule(lams), len(lams))


# ----- reference 30-cycle analysis, frozen end to end -----

def test_reference_point_estimate():
    mu_star = point_estimate(REF_T, ref_seqs(), 30)
    assert mu_star == pytest.approx(0.05024095460630317, rel=1e-15)


def test_reference_interval():
    pi = poisson_interval(REF_T, ref_seqs(), 30, REF_ELL, z=2.0)
    assert pi.mu_star == pytest.approx(0.05024095460630317, rel=1e-15)
    assert pi.sigma_star == pytest.approx(0.1493072399255155, rel=1e-14)
    assert pi.lo == pytest.approx(0.025530663855982377, rel=1e-13)
    assert pi.hi == pytest.approx(0.07495124535662397, rel=1e-13)
    # naive width ignores the schedule variance term
    assert pi.sigma_naive == pytest.approx(math.sqrt(REF_T / REF_ELL))
    assert pi.sigma_naive < pi.sigma_star
    # small-mu refinement: mu (1 +- z / sqrt(t ell))
    rel = 2.0 / math.sqrt(REF_T * REF_ELL)
    assert pi.small_mu_lo == pytest.approx(pi.mu_star * (1 - rel), rel=1e-13)
    assert pi.small_mu_hi == pytest.approx(pi.mu_star * (1 + rel), rel=1e-13)


@pytest.mark.parametrize("S0,lo,hi", [
    (1, 0.0503169964536948, 0.050671556301156356),
    (10, 0.05025476329669931, 0.05031870063604066),
    (100, 0.05024245815483709, 0.050249410335841446),
])
def test_reference_brackets(S0, lo, hi):
    got_lo, got_hi = finite_population_bracket(REF_T, ref_seqs(), S0, 30)
    assert got_lo == pytest.approx(lo, rel=1e-13)
    assert got_hi == pytest.approx(hi, rel=1e-13)
    assert got_lo > point_estimate(REF_T, ref_seqs(), 30)


def test_reference_negligibility():
    rep = negligibility(ref_seqs(), 100, 30)
    assert rep.lambda_min == pytest.approx(0.146)
    assert rep.effective_mass == pytest.approx(438.0)
    assert rep.refined_mass == pytest.approx(2188.5)
    assert rep.relative_error == pytest.approx(2.0 / 438.0, rel=1e-12)
    assert rep.negligible


def test_reference_sample_size_guidance():
    g = sample_size_guidance(ref_seqs(), 30, target=0.01)
    assert g.S0_crude == 46
    assert g.S0_refined == 10
    assert g.S0_refined == math.ceil(2.0 / (0.01 * sum(REF_LAMBDAS)))
    with pytest.raises(ValueError):
        sample_size_guidance(ref_seqs(), 30, target=0.0)


def test_zero_efficiency_guidance():
    seqs = seqs_for([0.0, 0.5])
    g = sample_size_guidance(seqs, 2)
    assert math.isinf(g.S0_crude)
    assert np.isfinite(g.S0_refined)
    rep = negligibility(seqs, 10, 2)
    assert math.isinf(rep.relative_error) or rep.relative_error > 0.01
    assert not rep.negligible


# ----- correction ratios -----

def decaying_seqs(n):
    return seqs_for([0.25 / k for k in range(1, n + 1)])


def test_decaying_schedule_ratios():
    rep = correction_ratio_report(decaying_seqs(25), 1, 25)
    assert rep.r == pytest.approx(0.4951230558169482, rel=1e-13)
    assert rep.rpp == pytest.approx(0.770153689270211, rel=1e-13)
    assert rep.lo_multiplier == pytest.approx(1.3290123207288116, rel=1e-13)
    assert rep.hi_multiplier == pytest.approx(1.6262194573021103, rel=1e-13)
    assert rep.lo_multiplier == pytest.approx(1.0 / (1.0 - rep.r / 2.0), rel=1e-15)
    assert rep.hi_multiplier == pytest.approx(1.0 / (1.0 - rep.rpp / 2.0), rel=1e-15)


@pytest.mark.parametrize("n,expected", [(5, 0.5209431195135337), (10, 0.515991214497833)])
def test_decaying_schedule_ratio_shorter_runs(n, expected):
    assert correction_ratio_report(decaying_seqs(n), 1, n).r == pytest.approx(
        expected, rel=1e-13
    )


# ----- brackets, general behavior -----

def test_bracket_contains_corrected_target():
    # t / (W - V_n) with the exact correction always lands inside
    lams = [0.4, 0.8, 0.55, 0.3, 0.9]
    sched = build_schedule(lams)
    seqs = seqs_for(lams)
    for S0 in (1, 2, 5, 40):
        _, Vn, _ = exact_Vn_Vpn(sched, S0, 5)
        t = 0.08 * seqs.W[5]
        lo, hi = finite_population_bracket(t, seqs, S0, 5)
        target = t / (seqs.W[5] - Vn)
        assert lo <= target <= hi
        assert lo >= point_estimate(t, seqs, 5)


def test_bracket_strict_mode():
    seqs = ref_seqs()
    lo, hi = finite_population_bracket(REF_T, seqs, 10, 30)
    lo_s, hi_s = finite_population_bracket(REF_T, seqs, 10, 30, strict=True)
    assert lo_s == lo
    assert hi_s <= hi
    with pytest.raises(ValueError):
        finite_population_bracket(REF_T, seqs, 1, 30, strict=True)


def test_bracket_degenerate_denominator():
    # a single founder and one low-efficiency cycle can push the correction
    # past the usable range; the bracket end degrades to +inf rather than
    # flipping sign
    seqs = seqs_for([0.05])
    lo, hi = finite_population_bracket(0.01, seqs, 1, 1)
    assert np.isfinite(lo)
    assert math.isinf(hi) or hi >= lo


@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=9),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_bracket_invariants(lams, S0):
    n = len(lams)
    seqs = seqs_for(lams)
    t = 0.05 * seqs.W[n]
    mu_star = point_estimate(t, seqs, n)
    lo, hi = finite_population_bracket(t, seqs, S0, n)
    assert lo >= mu_star - 1e-15
    if np.isfinite(hi):
        assert hi >= lo - 1e-15
    _, Vn, _ = exact_Vn_Vpn(build_schedule(lams), S0, n)
    target = t / (seqs.W[n] - Vn)
    assert lo - 1e-12 <= target
    if np.isfinite(hi):
        assert target <= hi + 1e-12


# ----- intervals -----

def test_poisson_interval_zero_sample():
    pi = poisson_interval(0.0, ref_seqs(), 30, 28, z=2.0)
    assert pi.mu_star == 0.0 and pi.lo == 0.0 and pi.hi == 0.0


def test_poisson_interval_validation():
    with pytest.raises(ValueError):
        poisson_interval(0.1, ref_seqs(), 30, 0, z=2.0)
    with pytest.raises(ValueError):
        poisson_interval(0.1, ref_seqs(), 30, 28, z=0.0)
    with pytest.raises(ValueError):
        poisson_interval(-0.1, ref_seqs(), 30, 28, z=2.0)


def test_chebyshev_interval_width():
    seqs = seqs_for([0.5] * 10)
    env = moment_envelope(seqs, poisson_law(0.05), 2, 10, 5)
    lo, hi = chebyshev_interval(env, z=3.0)
    assert lo == pytest.approx(env.Et_lo - 3.0 * math.sqrt(env.Vt_hi))
    assert hi == pytest.approx(env.Et_hi + 3.0 * math.sqrt(env.Vt_hi))
    with pytest.raises(ValueError):
        chebyshev_interval(env, z=0.0)


# ----- report text -----

def test_estimate_report_text():
    rep = estimate_report(REF_T, ref_seqs(), 100, 30, REF_ELL, z=2.0)
    text = rep.text()
    assert "0.05024" in text
    assert "finite-size correction negligible" in text
    sparse = estimate_report(0.01, seqs_for([0.01] * 5), 2, 5, 4, z=2.0)
    assert "NOT negligible" in sparse.text()


# ----- end-to-end coverage -----

def test_interval_coverage():
    # simulate the reference schedule and check the central interval catches
    # the true rate well above the Chebyshev floor
    mu = 0.05
    sched = build_schedule(REF_LAMBDAS)
    seqs = ref_seqs()
    spec = ProcessSpec(sched, poisson_law(mu), 10)
    reps, hits = 2000, 0
    mc = monte_carlo_moments(spec, 30, REF_ELL, reps, 2024, keep_samples=True,
                             population_cap=10**9)
    for t in mc.t_values:
        pi = poisson_interval(float(t), seqs, 30, REF_ELL, z=2.0)
        if pi.lo <= mu <= pi.hi:
            hits += 1
    assert hits / reps >= 0.70
