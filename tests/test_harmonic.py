"""Exact harmonic functionals: frozen values, identities, and the bounds."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
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


def test_pointwise_frozen_values():
    assert harmonic.H(2, 0.5) == pytest.approx(2 * (0.25 / 2 + 0.5 / 3 + 0.25 / 4))
    assert harmonic.H(2, 0.5) == pytest.approx(17.0 / 24.0, abs=1e-12)
    assert harmonic.A(1, 0.5) == pytest.approx(1.0 / 12.0, abs=1e-15)
    fam = harmonic.B_family(1, 0.5)
    assert fam.G == pytest.approx(0.625)
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


def test_power_moment_specializations():
    for k, lam in ((1, 0.3), (4, 0.9), (7, 0.0)):
        p1, p2 = harmonic._power_rows(k, *harmonic._binom_weights(k, lam), 1, 2)
        assert float(p1) == pytest.approx(harmonic.H(k, lam), abs=1e-15)
        assert float(p2) == pytest.approx(harmonic.B_family(k, lam).G, abs=1e-15)


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


def test_scalar_functionals_are_their_family_rows():
    # H_y is C_family's Hy and H is B_family's H, to the bit
    for lam in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        for k in range(1, 40):
            assert harmonic.H(k, lam) == harmonic.B_family(k, lam).H
            for y in (-0.5, 0.0, 0.5, 1.0, 5.0):
                assert harmonic.H_y(k, lam, y) == harmonic.C_family(k, lam, y).Hy


def _bits(family) -> list[bytes]:
    """Each field of a family as the bytes of a double: equal lists are bit-identical."""
    return [np.float64(x).tobytes() for x in dataclasses.astuple(family)]


@pytest.mark.parametrize("y", [1.0, None])
def test_family_table_is_bit_identical_to_the_scalar_families(y):
    # the grid of the benchmark's `harmonic --k-max 12 --lambdas 0.3,0.7 --y 1`
    table = harmonic.family_table(12, (0.3, 0.7), y)
    assert [(fam.lam, fam.k) for fam, _ in table] == [
        (lam, k) for lam in (0.3, 0.7) for k in range(1, 13)]
    for fam, cf in table:
        assert _bits(fam) == _bits(harmonic.B_family(fam.k, fam.lam))
        if y is None:
            assert cf is None
        else:
            assert _bits(cf) == _bits(harmonic.C_family(fam.k, fam.lam, y))


def test_family_table_domain():
    assert harmonic.family_table(0, (0.5,), 1.0) == []
    for args in ((-1, (0.5,)), (3, (0.5, 1.5)), (3, (0.5,), -1.0), (3, (0.5,), math.inf)):
        with pytest.raises(ValueError):
            harmonic.family_table(*args)


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
def test_shift_must_be_finite(y):
    # a plain ValueError, before any arithmetic could warn
    for call in (lambda: harmonic.C_family(3, 0.5, y), lambda: harmonic.H_y(3, 0.5, y)):
        with pytest.raises(ValueError, match="must be finite"):
            call()


@pytest.mark.parametrize("y", [1e16, 1e300, 1e308, float(np.finfo(float).max)])
def test_c_family_at_a_huge_shift_takes_its_limit(y):
    # as y grows, C -> k^2 E[L_1 L_2 / M_k^2] = B1 (0 by convention at k = 1),
    # H_y -> 1, and C', C'' fall like 1/y
    for k, lam in ((1, 0.5), (2, 0.3), (12, 0.7), (12, 1.0)):
        cf = harmonic.C_family(k, lam, y)
        fam = harmonic.B_family(k, lam)
        assert cf.C == pytest.approx(0.0 if k == 1 else fam.B1, rel=1e-12)
        assert cf.Hy == pytest.approx(1.0, rel=1e-12)
        assert 0.0 <= cf.Cpp <= cf.Cp <= 1.0 / y


def test_taylor_sandwich_spot():
    for k in (1, 2, 5, 20):
        for lam in (0.1, 0.5, 0.9):
            h_up, g_low = harmonic.taylor_sandwich(k, lam)
            assert harmonic.H(k, lam) <= h_up + 1e-12
            assert harmonic.B_family(k, lam).G >= g_low - 1e-12


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


@pytest.mark.parametrize("lam", [1e-6, 0.5, 0.999, 1.0 - 1e-6])
@pytest.mark.parametrize("k", [1, 40, 200])
def test_integral_matches_centered_mean_at_extremes(k, lam):
    quad = lam * (1.0 - lam) * harmonic.A_integral(k, 1, lam)
    assert abs(quad - harmonic.A(k, lam)) <= 1e-12


def _exact_integral(k, lam):
    """I(k, 1) = A(k, lambda) / (lambda (1 - lambda)), at 40 digits."""
    with mpmath.workdps(40):
        L = mpmath.mpf(lam)
        a = mpmath.fsum(mpmath.binomial(k, j) * L**j * (1 - L) ** (k - j) * k / (k + j)
                        for j in range(k + 1)) - 1 / (1 + L)
        return float(a / (L * (1 - L)))


def test_quadrature_error_estimate_bounds_actual_error():
    # the acceptance-4 grid; the estimate may fall short of the error only by
    # the rounding of the returned double itself
    for lam in [round(0.1 * i, 1) for i in range(1, 10)]:
        for k in range(1, 41):
            def integrand(t):
                return ((1.0 - lam) * t + lam * t * t) ** k / ((1.0 - lam) + 2.0 * lam * t) ** 2

            value, err = harmonic._gauss_kronrod(integrand, 0.0, 1.0, harmonic._QUAD_TOL)
            exact = _exact_integral(k, lam)
            assert err <= harmonic._QUAD_TOL
            assert abs(value - exact) <= err + 4 * np.finfo(float).eps * exact, (k, lam)


def test_quadrature_budget(monkeypatch):
    def kink(t):
        return np.abs(t - 1.0 / 3.0)

    monkeypatch.setattr(harmonic, "_QUAD_BUDGET", 10**5)
    value, err = harmonic._gauss_kronrod(kink, 0.0, 1.0, 1e-12)
    assert abs(value - 5.0 / 18.0) <= err + 1e-15
    # the first pass takes 16 pieces of 15 evaluations each
    for budget in (10, 100):                                    # not even one pass
        monkeypatch.setattr(harmonic, "_QUAD_BUDGET", budget)
        with pytest.raises(RuntimeError, match=f"exceeded {budget} evaluations"):
            harmonic._gauss_kronrod(kink, 0.0, 1.0, 1e-12)
    # a budget that admits the first pass and a few splits, not convergence
    evals = []

    def counted(t):
        evals.append(t.size)
        return kink(t)

    monkeypatch.setattr(harmonic, "_QUAD_BUDGET", 400)
    with pytest.raises(RuntimeError):
        harmonic._gauss_kronrod(counted, 0.0, 1.0, 1e-12)
    assert evals[0] == 240 and len(evals) > 2 and sum(evals) <= 400


@pytest.mark.parametrize("a, b, c", [(2.0, 5.0, 3.0), (1.0, 0.0, 1.0 / 3.0)])
def test_gauss_kronrod_off_the_unit_interval(a, b, c):
    # the first pass scales the unit pieces to [a, b], backwards when b < a:
    # a degree-22 polynomial in u = (2t - a - b)/(b - a), which K15 integrates
    # exactly on every piece, and a kink at c, which takes adaptive splits
    def poly(t):
        u = (2.0 * t - a - b) / (b - a)
        return u**22 + u**13 - 3.0 * u**2 + 1.0

    def kink(t):
        return np.abs(t - c)

    cases = ((poly, (b - a) / 23.0),
             (kink, math.copysign(((c - a) ** 2 + (b - c) ** 2) / 2.0, b - a)))
    for g, exact in cases:
        value, err = harmonic._gauss_kronrod(g, a, b, 1e-12)
        assert err <= 1e-12
        assert abs(value - exact) <= err + 4 * np.finfo(float).eps * abs(exact), (g, value)


def test_gauss_kronrod_groups():
    # one call, several integrals over their own panels: x^2 + |x - 1.7| over
    # [0, 1] and [1, 3] (integral 0), none (integral 1), the |t - 1/3| kink
    # backwards over [1, 0] (integral 2), and e^-t over [0, 1], [1, 4],
    # [4, 16] (integral 3); the kinks split pieces of two integrals at once
    a = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 4.0])
    b = np.array([1.0, 3.0, 0.0, 1.0, 4.0, 16.0])
    group = np.array([0, 0, 2, 3, 3, 3])
    passes = []

    def g(x, rows):
        assert x.shape == (len(rows), 15) and np.all(np.diff(rows) >= 0)
        passes.append(len(rows))
        r = rows[:, None]
        return np.where(r == 0, x * x + np.abs(x - 1.7),
                        np.where(r == 2, np.abs(x - 1.0 / 3.0), np.exp(-x)))

    sums, err = harmonic._gauss_kronrod(g, a, b, 0.0, group=group, rtol=1e-13)
    want = np.array([9.0 + (1.7**2 + 1.3**2) / 2.0, 0.0, -5.0 / 18.0, -math.expm1(-16.0)])
    assert passes[0] == 6 * 16 and len(passes) > 2     # the kink takes splits
    assert sums.shape == (4,) and sums[1] == 0.0
    assert np.sum(np.abs(sums - want)) <= err + 4 * np.finfo(float).eps * np.sum(np.abs(want))
    assert err <= 1e-13 * np.sum(np.abs(want))
    # one panel in one group is the scalar call: the same pieces and sums
    def kink(x, *rows):
        return np.abs(x - 1.0 / 3.0)

    one = harmonic._gauss_kronrod(kink, np.array([1.0]), np.array([0.0]), 1e-12,
                                  group=np.array([0]))
    assert (one[0][0], one[1]) == harmonic._gauss_kronrod(kink, 1.0, 0.0, 1e-12)


def test_gauss_kronrod_bound_option():
    # bound=False skips only the error bound: the same value to the bit, on
    # the acceptance-4 grid at ell = 1 and 2, where A_integral passes it
    def same(*args, **kwargs):
        value, err = harmonic._gauss_kronrod(*args, **kwargs)
        bare, none = harmonic._gauss_kronrod(*args, **kwargs, bound=False)
        assert none is None and np.asarray(err).dtype == float
        assert np.asarray(bare).tobytes() == np.asarray(value).tobytes()
        return value

    for lam in [round(0.1 * i, 1) for i in range(1, 10)]:
        for k in range(1, 41):
            for ell in (1, 2):
                def integrand(t):
                    ft = (1.0 - lam) * t + lam * t * t
                    return ft**k / ((1.0 - lam) + 2.0 * lam * t) ** (2 * ell)

                value = same(integrand, 0.0, 1.0, harmonic._QUAD_TOL)
                assert harmonic.A_integral(k, ell, lam) == value, (k, lam, ell)
    # an integral that refines past the first pass, alone and as a group
    passes = []

    def kink(t, *rows):
        passes.append(t.shape[0])
        return np.abs(t - 1.0 / 3.0)

    same(kink, 0.0, 1.0, 1e-12)
    assert len(passes) > 2
    same(kink, np.array([0.0, 0.5]), np.array([0.5, 1.0]), 1e-12, group=np.array([0, 1]))


def test_gauss_kronrod_rule_exactness():
    # K15 integrates polynomials of degree <= 22 exactly and G7 those of
    # degree <= 13; G7 misses x^14
    x = harmonic._GK_NODES
    for d in range(23):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(harmonic._GK_K15 @ x**d - exact) <= 1e-15, d
        if d <= 13:
            assert abs(harmonic._GK_G7 @ x**d - exact) <= 1e-15, d
    assert abs(harmonic._GK_G7 @ x**14 - 2.0 / 15.0) > 1e-5


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
    with pytest.raises(ValueError):
        harmonic.inequality_violations(k_max=0)


def _reference_violations(k_max, lambdas, y_values, slack, tail_k=500):
    """The inequality suite as a plain loop over the public scalar functionals.

    Returns the violation labels, in the documented order (lambda, then k,
    then check, each lambda's tail label last), and the number of checks run.
    """
    bad = []
    checked = 0

    def check(ok, label):
        nonlocal checked
        checked += 1
        if not ok:
            bad.append(label)

    for lam in lambdas:
        n2 = lam * (1.0 - lam)
        alpha = lam / (1.0 + lam)
        inv = 1.0 / (1.0 + lam)
        fams = {k: harmonic.B_family(k, lam) for k in range(1, k_max + 2)}
        for k in range(1, k_max + 1):
            fam = fams[k]
            tag = f"(k={k}, lam={lam})"
            check(1.0 - alpha - slack <= fam.H <= 1.0 + slack, f"H range {tag}")
            check(fam.A >= -slack, f"A nonnegative {tag}")
            check(fam.B <= alpha * (1.0 - alpha) / k + slack, f"B coefficient bound {tag}")
            check(fam.Bp <= lam / (k + 1) + slack, f"B' coefficient bound {tag}")
            check(fam.Bpp <= n2 / (k + 2) + slack, f"B'' coefficient bound {tag}")
            check(fam.G <= inv**2 + 3.0 * fam.A + slack, f"G vs A bound {tag}")
            powers = harmonic._power_rows(k, *harmonic._binom_weights(k, lam), 1, 2, 3, 4, 5)
            for p, moment in enumerate(powers, start=1):
                check(float(moment) <= inv**p + fam.A * p * (p + 1) / 2.0 + slack,
                      f"power moment bound p={p} {tag}")
            check(fam.Bp <= fam.A * (1.0 + 3.0 * lam) * inv + slack, f"B' vs A upper {tag}")
            check(fam.B >= fam.A / 2.0 - slack, f"B vs A lower {tag}")
            check(fam.Bp >= (1.0 - lam) * fam.A / 2.0 - slack, f"B' vs A lower {tag}")
            seq_here, seq_next = (k + 1) * fam.A, (k + 2) * fams[k + 1].A
            check(seq_next <= seq_here + slack, f"(k+1)A nonincreasing {tag}")
            check(alpha * (1.0 - lam) * inv**2 - slack <= seq_here <= alpha * (1.0 - lam) + slack,
                  f"(k+1)A range {tag}")
            scale = n2 * inv**3
            check(scale / (k + 1) - slack <= fam.A <= scale * (k + 1) / k**2 + slack,
                  f"A asymptotic range {tag}")
            if k >= 2:
                check(fam.A <= scale / (k - 1) + slack, f"A asymptotic range k>=2 {tag}")
            h_up, g_low = harmonic.taylor_sandwich(k, lam)
            check(fam.H <= h_up + slack, f"H Taylor upper {tag}")
            check(fam.G >= g_low - slack, f"G Taylor lower {tag}")
            if k >= 2:
                check(abs(fam.Bpp + fam.B1 - 1.0) <= slack, f"B''+B1 identity {tag}")
                check(abs(fam.Bpp - harmonic._bpp_via_shift(k, lam)) <= slack,
                      f"B'' shift identity {tag}")
                check(fam.Bpp >= n2 * inv**2 * k / (k + 1) ** 2 - slack, f"B'' lower bound {tag}")
            check(abs(fam.B2 - (1.0 - fam.H) ** 2 - fam.Bp) <= slack, f"B2 decomposition {tag}")
            for y in y_values:
                if not k + y > 0:
                    continue
                cf = harmonic.C_family(k, lam, y)
                ytag = f"(k={k}, lam={lam}, y={y})"
                check(cf.Cpp <= cf.Cp + slack, f"C'' vs C' {ytag}")
                check((k + y) * cf.Cp <= 1.0 - fam.H + slack, f"C' vs 1-H {ytag}")
                check(cf.C <= cf.Hy + slack, f"C vs H_y {ytag}")
                check((k + y) * cf.Cp <= alpha + slack, f"C' contraction {ytag}")
                if y >= 0:
                    check(cf.C <= 1.0 - lam / (y + 2.0) + slack, f"C contraction {ytag}")
                elif y == -1.0 and k >= 2:
                    check(cf.C <= 1.0 - alpha + slack, f"C contraction shift -1 {ytag}")
            for y in y_values:
                if not k + y > 0:
                    continue
                here, nxt = harmonic.H_y(k, lam, y), harmonic.H_y(k + 1, lam, y)
                ytag = f"(k={k}, lam={lam}, y={y})"
                if y >= 0:
                    check(nxt <= here + slack, f"H_y nonincreasing {ytag}")
                    check(here >= inv - slack, f"H_y floor {ytag}")
                elif y == -1.0 and k >= 2:
                    check(nxt >= here - slack, f"H_-1 nondecreasing {ytag}")
                    check(here <= inv + slack, f"H_-1 ceiling {ytag}")
        tail = tail_k * harmonic.A(tail_k, lam)
        limit = n2 * inv**3
        check(abs(tail - limit) <= 0.15 * limit + slack, f"kA(k) tail (lam={lam})")
    return bad, checked


@pytest.mark.parametrize("y_values", [harmonic.DEFAULT_Y_GRID, (-2.5, -1.0, 0.0, 3.0)])
def test_inequality_suite_matches_reference(y_values, monkeypatch):
    # lambda = 0 and 1 are point-mass rows in the band call of ordinary rows.
    # The grid runs as one block, then with a budget of two efficiencies a
    # block, as three: each block makes one band call for its rows and one
    # for its tail rows, and the labels come in the same order
    kwargs = dict(k_max=8, lambdas=(0.0, 0.05, 0.3, 0.7, 1.0), y_values=y_values)
    per_lambda = (kwargs["k_max"] + 2) ** 2 + harmonic._TAIL_K + 1
    budgets = ((harmonic._BLOCK_CELLS, 1), (2 * per_lambda, 3))   # (cells, blocks)
    calls = []
    band = harmonic.binom_band
    monkeypatch.setattr(harmonic, "binom_band", lambda *a, **kw: calls.append(1) or band(*a, **kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # masked cells must not divide by zero
        for slack in (1e-12, -1e-9, -1e-3):
            want, want_checked = _reference_violations(slack=slack, **kwargs)
            for cells, blocks in budgets:
                monkeypatch.setattr(harmonic, "_BLOCK_CELLS", cells)
                calls.clear()
                got, checked = harmonic._inequality_suite(slack=slack, **kwargs)
                assert len(calls) == 2 * blocks
                assert got == want, (slack, blocks)
                assert checked == want_checked > 0
                assert harmonic.inequality_violations(slack=slack, **kwargs) == got
            if slack < 0:
                assert len(got) > 100
            else:
                assert got == []
        assert harmonic.inequality_violations() == []


def test_inequality_suite_memory_is_blocked():
    # at k_max = 400 one efficiency's bands pass half the block budget, so two
    # efficiencies take two blocks and peak near one efficiency's memory, not
    # twice it
    kw = dict(k_max=400)
    size = kw["k_max"] + 2
    assert 2 * (size * size + harmonic._TAIL_K + 1) > harmonic._BLOCK_CELLS
    harmonic.inequality_violations(k_max=2)
    peaks = []
    for lambdas in ((0.3,), (0.3, 0.7)):
        tracemalloc.start()
        try:
            assert harmonic.inequality_violations(lambdas=lambdas, **kw) == []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_taylor_sandwich_is_the_suite_row():
    k = np.arange(1.0, 31.0)
    lam = np.array([0.05, 0.3, 0.77, 1.0])[:, None]
    h_up, g_low = harmonic._taylor_rows(k, lam)
    for i, l in enumerate(lam[:, 0]):
        for kk in range(1, 31):
            assert harmonic.taylor_sandwich(kk, float(l)) == (h_up[i, kk - 1], g_low[i, kk - 1])
