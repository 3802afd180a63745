"""Exact harmonic functionals: frozen values, identities, and the bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from branchpcr import harmonic
from branchpcr.moments import size_law
from branchpcr.schedule import build_schedule

ks = st.integers(min_value=1, max_value=50)
# the exact endpoints plus (1e-300, 1]: the binomial weights stay exact down
# to the bottom of the normal doubles
lams = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(min_value=1e-300, max_value=1.0)
)


def test_binomial_mix_example():
    values, probs = harmonic.binomial_mix(2, 0.5)
    np.testing.assert_array_equal(values, [2, 3, 4])
    np.testing.assert_allclose(probs, [0.25, 0.5, 0.25])


def test_pointwise_frozen_values():
    assert harmonic.H(2, 0.5) == pytest.approx(2 * (0.25 / 2 + 0.5 / 3 + 0.25 / 4))
    assert harmonic.H(2, 0.5) == pytest.approx(17.0 / 24.0, abs=1e-12)
    assert harmonic.A(1, 0.5) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert harmonic.G(1, 0.5) == pytest.approx(0.625)
    fam = harmonic.B_family(1, 0.5)
    assert fam.B == pytest.approx(0.125)
    assert fam.Bp == pytest.approx(0.0625)
    assert fam.B2 == pytest.approx(0.125)
    # single-particle pairwise functionals are defined by convention
    assert fam.Bpp == 0.0
    assert fam.B1 == 1.0
    cf = harmonic.C_family(3, 1.0, 0.0)
    assert cf.Cp == pytest.approx(15.0 / 216.0)
    assert harmonic.C_family(1, 0.5, 0.0).C == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        harmonic.H(0, 0.5)
    with pytest.raises(ValueError):
        harmonic.H(3, 1.5)
    with pytest.raises(ValueError):
        harmonic.H_y(1, 0.5, -1.0)  # k + y must stay positive
    with pytest.raises(ValueError):
        harmonic.C_family(2, 0.5, -2.0)
    with pytest.raises(ValueError):
        harmonic.power_moment(2, 0.5, 0)


def test_power_moment_specializations():
    for k, lam in ((1, 0.3), (4, 0.9), (7, 0.0)):
        assert harmonic.power_moment(k, lam, 1) == pytest.approx(
            harmonic.H(k, lam), abs=1e-15
        )
        assert harmonic.power_moment(k, lam, 2) == pytest.approx(
            harmonic.G(k, lam), abs=1e-15
        )


@given(ks, lams)
@settings(max_examples=200, deadline=None)
def test_family_identities(k, lam):
    fam = harmonic.B_family(k, lam)
    # H - G = k B follows from M - k being the duplication count
    assert math.isclose(fam.H - fam.G, k * fam.B, rel_tol=0, abs_tol=1e-13)
    assert math.isclose(fam.B2, (1.0 - fam.H) ** 2 + fam.Bp, rel_tol=0, abs_tol=1e-13)
    if k >= 2:
        assert math.isclose(fam.Bpp + fam.B1, 1.0, rel_tol=0, abs_tol=1e-12)
    assert fam.A >= -1e-15
    assert 0.0 <= fam.H <= 1.0 + 1e-15


@given(st.integers(min_value=2, max_value=50), lams)
@settings(max_examples=150, deadline=None)
def test_pair_shift_identity(k, lam):
    fam = harmonic.B_family(k, lam)
    alt = harmonic._bpp_via_shift(k, lam)
    assert math.isclose(fam.Bpp, alt, rel_tol=0, abs_tol=1e-13)


def test_taylor_sandwich_spot():
    for k in (1, 2, 5, 20):
        for lam in (0.1, 0.5, 0.9):
            h_up, g_low = harmonic.taylor_sandwich(k, lam)
            assert harmonic.H(k, lam) <= h_up + 1e-12
            assert harmonic.G(k, lam) >= g_low - 1e-12


def test_integral_matches_centered_mean():
    for k in (1, 5, 17, 40):
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            quad = lam * (1.0 - lam) * harmonic.A_integral(k, 1, lam)
            assert abs(quad - harmonic.A(k, lam)) < 1e-10, (k, lam)


def test_integral_recursion_spot():
    # (k+1) I(k, l) = (1+lam)^-(2l+1) + 2 lam (2l+1) I(k+1, l+1)
    lam = 0.3
    for k in (1, 5, 20):
        for ell in (1, 2, 3):
            lhs = (k + 1) * harmonic.A_integral(k, ell, lam)
            rhs = (1.0 + lam) ** -(2 * ell + 1) + 2.0 * lam * (
                2 * ell + 1
            ) * harmonic.A_integral(k + 1, ell + 1, lam)
            assert abs(lhs - rhs) < 1e-10, (k, ell)


def test_integral_domain():
    with pytest.raises(ValueError):
        harmonic.A_integral(3, 0, 0.5)
    for lam in (0.0, 1.0, 1.3):
        with pytest.raises(ValueError):
            harmonic.A_integral(3, 1, lam)


def test_size_harmonic_bounds_contain_exact():
    sched = build_schedule([0.5] * 6)
    law = size_law(sched, 2, 5)
    for y in (0.0, 1.0, 5.0):
        hb = harmonic.harmonic_moment_bounds(sched, 2, 5, y)
        exact = law.harmonic_moment(y)
        assert hb.lower <= exact <= hb.upper, y
    hb = harmonic.harmonic_moment_bounds(sched, 2, 5, -1.0)
    exact = law.harmonic_moment(-1.0)
    assert hb.lower <= exact <= hb.upper


def test_size_harmonic_bounds_collapse_at_full_efficiency():
    sched = build_schedule([1.0] * 4)
    for S0 in (1, 2, 5):
        hb = harmonic.harmonic_moment_bounds(sched, S0, 4, 0.0)
        assert hb.lower == pytest.approx(2.0**-4 / S0, rel=1e-12)
        assert hb.upper == pytest.approx(hb.lower, rel=1e-12)


def test_size_harmonic_bounds_single_founder_alternative():
    sched = build_schedule([0.4, 0.6, 0.9])
    hb = harmonic.harmonic_moment_bounds(sched, 1, 3, 0.0)
    assert hb.alt_upper is not None
    gamma3 = 1.0 / (1.4 * 1.6 * 1.9)
    assert hb.alt_upper == pytest.approx(gamma3 * (1.0 + 1.0 / 0.4), rel=1e-12)
    assert hb.upper <= hb.alt_upper + 1e-15


def test_size_harmonic_bounds_domain():
    sched = build_schedule([0.5] * 3)
    with pytest.raises(ValueError):
        harmonic.harmonic_moment_bounds(sched, 0, 3, 0.0)
    with pytest.raises(ValueError):
        harmonic.harmonic_moment_bounds(sched, 1, 3, -1.0)  # S0 + y = 0
    with pytest.raises(ValueError):
        harmonic.harmonic_moment_bounds(sched, 3, 3, -1.5)  # fractional shift


@given(
    st.lists(lams, min_size=1, max_size=6),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.0, 0.5, 1.0, 5.0]),
)
@settings(max_examples=60, deadline=None)
def test_size_harmonic_bounds_property(lams_list, S0, y):
    sched = build_schedule(lams_list)
    n = len(lams_list)
    hb = harmonic.harmonic_moment_bounds(sched, S0, n, y)
    assert hb.lower <= hb.upper + 1e-15
    exact = size_law(sched, S0, n).harmonic_moment(y)
    assert hb.lower - 1e-12 <= exact <= hb.upper + 1e-12


def test_inequality_suite_smoke():
    bad = harmonic.inequality_violations(k_max=8, lambdas=(0.3, 0.7, 1.0))
    assert bad == []
