"""Exact references, envelopes, and the remainder recursion."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from branchpcr import _pmf, harmonic, kinetics
from branchpcr._pmf import binom_row
from branchpcr.moments import (
    MutationLaw,
    _exact_moments,
    _pgf_corrections,
    exact_Vn_Vpn,
    exact_sample_moments,
    infinite_population_moments,
    moment_envelope,
    poisson_law,
    rn_upper_bound,
    size_law,
    size_laws,
)
from branchpcr.schedule import build_schedule, derived_sequences, mm_lambda
from branchpcr.simulator import enumerate_tiny

REF_LAMBDAS = [0.872] * 20 + [0.743] * 5 + [0.146] * 5

lam_floats = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(min_value=1e-6, max_value=1.0)
)


def seqs_for(lams):
    return derived_sequences(build_schedule(lams), len(lams))


# ----- mutation laws -----

def test_mutation_law_validation():
    with pytest.raises(ValueError):
        MutationLaw(mu=-0.1, nu=0.1)
    with pytest.raises(ValueError):
        MutationLaw(mu=0.1, nu=-0.1)
    with pytest.raises(ValueError):
        MutationLaw(mu=0.1, nu=0.2, poisson=True)
    law = poisson_law(0.05)
    assert law.nu == 0.05 and law.poisson
    assert law.second_moment == pytest.approx(0.05 + 0.0025)


def test_two_point_support():
    law = MutationLaw(mu=0.1, nu=0.04)
    a, p = law.two_point_support()
    assert a == pytest.approx(0.05 / 0.1)
    assert p == pytest.approx(0.01 / 0.05)
    # moments of p delta_a match (mu, nu) exactly
    assert p * a == pytest.approx(law.mu)
    assert p * a * a - (p * a) ** 2 == pytest.approx(law.nu)
    assert MutationLaw(mu=0.0, nu=0.0).two_point_support() == (0.0, 0.0)
    with pytest.raises(ValueError):
        MutationLaw(mu=0.0, nu=0.1).two_point_support()
    # mu^2 underflows to 0: still the point mass at mu
    assert MutationLaw(mu=1.6e-208, nu=0.0).two_point_support() == (1.6e-208, 1.0)
    # nu/mu overflows: no finite atom
    with pytest.raises(ValueError, match="overflows"):
        MutationLaw(mu=2.2e-309, nu=1.0).two_point_support()


# ----- infinite-population limits -----

def test_infinite_population_reference_value():
    seqs = seqs_for(REF_LAMBDAS)
    Et, Vt = infinite_population_moments(seqs, poisson_law(0.05024), 30, 28)
    assert Et == pytest.approx(0.60716, abs=5e-5)
    assert Vt == pytest.approx((0.05024 * seqs.W[30] + 0.05024**2 * seqs.Wp[30]) / 28)
    assert infinite_population_moments(seqs, poisson_law(0.0), 30, 28) == (0.0, 0.0)
    assert infinite_population_moments(seqs, poisson_law(0.05), 0, 28) == (0.0, 0.0)
    with pytest.raises(ValueError):
        infinite_population_moments(seqs, poisson_law(0.05), 30, 0)


# ----- exact size law -----

def test_size_law_one_cycle():
    law = size_law(build_schedule([0.5]), 1, 1)
    np.testing.assert_array_equal(law.sizes, [1, 2])
    np.testing.assert_allclose(law.probs, [0.5, 0.5])


def test_size_law_two_cycles():
    # conditioning on the first cycle: 1/2 (1/2, 1/2, 0, 0) + 1/2 (0, 1/4, 1/2, 1/4)
    law = size_law(build_schedule([0.5, 0.5]), 1, 2)
    np.testing.assert_array_equal(law.sizes, [1, 2, 3, 4])
    np.testing.assert_allclose(law.probs, [0.25, 0.375, 0.25, 0.125], atol=1e-15)
    assert law.mean() == pytest.approx(2.25)


def test_size_law_full_efficiency_point_mass():
    law = size_law(build_schedule([1.0] * 5), 3, 5)
    idx = np.argmax(law.probs)
    assert law.sizes[idx] == 3 * 2**5
    assert law.probs[idx] == pytest.approx(1.0)


def test_size_law_cap(monkeypatch):
    monkeypatch.setattr(_pmf, "_SIZE_CAP", 7)
    with pytest.raises(ValueError):
        size_law(build_schedule([0.5] * 3), 1, 3)
    with pytest.raises(ValueError):
        size_law(build_schedule([0.5]), 0, 1)


def test_size_law_mean_matches_growth():
    lams = [0.3, 0.9, 0.5, 0.7]
    seqs = seqs_for(lams)
    law = size_law(build_schedule(lams), 2, 4)
    assert law.mean() == pytest.approx(2.0 / seqs.gamma[4], rel=1e-12)
    with pytest.raises(ValueError):
        law.harmonic_moment(-2.0)  # shift reaches the support


# ----- exact correction sums -----

def test_exact_correction_single_cycle():
    A_seq, Vn, Vpn = exact_Vn_Vpn(build_schedule([0.5]), 1, 1)
    assert A_seq[0] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert Vn == pytest.approx(1.0 / 12.0, abs=1e-15)
    eps = np.finfo(float).eps
    # a cycle that always or never duplicates has no integral: exactly 0
    for lam in (0.0, 1.0):
        for S0 in (1, 2, 7):
            A_seq, Vn, Vpn = exact_Vn_Vpn(build_schedule([lam]), S0, 1)
            assert A_seq.tolist() == [0.0] and Vn == 0.0 and Vpn == 0.0
    # one founder: A_1 = A(1, lambda) = alpha (1 - lambda)/2 in closed form;
    # near lambda = 1 the integrand peaks at t = 0, where w form would lose x
    for lam in (0.1, 0.5, 0.9, 0.99, 0.9921875):
        A_seq, _, err = _pgf_corrections(build_schedule([lam]), 1, 1)
        want = lam / (1.0 + lam) * (1.0 - lam) / 2.0
        assert abs(A_seq[0] - want) <= err + 4 * np.spacing(want), lam
    # one cycle from a point mass: A_1 is harmonic.A(S0, lambda), whose row
    # sum H less 1/(1 + lambda) is off by up to about (S0 + 3) eps
    for lam in (0.1, 0.5, 0.9):
        for S0 in range(1, 15):
            A_seq, _, err = _pgf_corrections(build_schedule([lam]), S0, 1)
            assert abs(A_seq[0] - harmonic.A(S0, lam)) <= err + (S0 + 3) * eps, (S0, lam)


def test_exact_correction_full_efficiency():
    A_seq, Vn, Vpn = exact_Vn_Vpn(build_schedule([1.0] * 4), 2, 4)
    np.testing.assert_allclose(A_seq, 0.0, atol=1e-15)
    assert Vn == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("S0", [2, 3, 5])
def test_correction_sum_sandwich(S0):
    lams = [0.5] * 8
    seqs = seqs_for(lams)
    _, Vn, _ = exact_Vn_Vpn(build_schedule(lams), S0, 8)
    assert seqs.v[8] / (S0 + 1) <= Vn <= seqs.v[8] / (S0 - 1)


def test_z_ordering():
    # nu V + mu^2 V' <= (nu + mu^2) V since each A'_k <= A_k
    sched = build_schedule([0.4, 0.7, 0.2, 0.9, 0.5])
    law = poisson_law(0.08)
    for S0 in (1, 2, 4):
        _, Vn, Vpn = exact_Vn_Vpn(sched, S0, 5)
        assert Vpn <= Vn + 1e-15
        assert law.nu * Vn + law.mu**2 * Vpn <= law.second_moment * Vn + 1e-15


@pytest.mark.parametrize("S0,lams", [
    (1, [0.3] * 8),
    (2, [0.9] * 6),
    (3, list(np.linspace(0.1, 0.95, 10))),
    (5, [0.5, 1.0, 0.25, 0.8]),
])
def test_per_cycle_sandwich(S0, lams):
    n = len(lams)
    A_seq, _, _ = exact_Vn_Vpn(build_schedule(lams), S0, n)
    assert_per_cycle_sandwich(A_seq, seqs_for(lams), S0, 0.0, 1e-13)


def assert_per_cycle_sandwich(A_seq, seqs, S0, rel, tol):
    """Each A_k between its sharp lower bound and both upper bounds, within rel of the bound plus tol."""
    for k in range(1, len(A_seq) + 1):
        lam = seqs.lam[k - 1]
        alpha = seqs.alpha[k - 1]
        sharp = seqs.gamma[k - 1] * alpha * (1 - lam) / (1 + lam) ** 2
        lo = sharp / (S0 + 1)
        assert A_seq[k - 1] >= lo * (1 - rel) - tol, (k, "lower")
        his = [seqs.gamma_i[3][k - 1] * alpha * (1 - lam) / (S0 + 1)]
        if S0 >= 2:
            his.append(sharp / (S0 - 1))
        for hi in his:
            assert A_seq[k - 1] <= hi * (1 + rel) + tol, (k, hi)


# ----- exact V_n from the size law's generating function, against references -----

def _mp_A(S0, lams, nodes):
    """A_1..A_n on the schedule lams, by Gauss-Legendre on the PGF integrals in mpmath.

    A_k = lam_k (1 - lam_k) int_0^1 G_k(t)/g_k'(t)^2 dt, G_k = (g_1 o ... o
    g_k)^S0, g_k(x) = x (1 - lam_k + lam_k x); a cycle with lam_k in {0, 1}
    has A_k = 0. The panels run in w = 1 - t up to 1/2, cut at 4^j/m_k where
    G_k falls off, and in t up to 1/2, cut at (1 - lam_k)/(2 lam_k) 4^i where
    1/g_k'^2 peaks.
    """
    Ls = [mpmath.mpf(L) for L in lams]
    half = mpmath.mpf(1) / 2
    nodes, weights = mpmath.mp.gauss_quadrature(nodes, "legendre")
    m, A = mpmath.mpf(S0), []
    for k, L in enumerate(Ls):
        m *= 1 + L
        A.append(mpmath.mpf(0))
        if not 0 < L < 1:
            continue
        for side, first in (("w", 1 / m), ("t", (1 - L) / (2 * L))):
            edges = [mpmath.mpf(0)]
            while first < half:
                edges.append(first)
                first *= 4
            edges.append(half)
            for a, b in zip(edges, edges[1:]):
                h = (b - a) / 2
                for x, wt in zip(nodes, weights):
                    u = a + h * (x + 1)
                    t = 1 - u if side == "w" else u
                    y = t
                    for Lj in reversed(Ls[: k + 1]):
                        y = y * (1 - Lj + Lj * y)
                    A[k] += L * (1 - L) * h * wt * y**S0 / (1 - L + 2 * L * t) ** 2
    return A


def _mp_Vn(S0, lams, nodes):
    """V_n = A_1 + ... + A_n from ``_mp_A``."""
    return mpmath.fsum(_mp_A(S0, lams, nodes))


def test_exact_Vn_matches_mpmath():
    # the banded program's H - 1/(1 + lambda) was off by 8.9e-14, 4.3e-14 and
    # 1.1e-14 relative on these; 20 and 30 Legendre nodes per panel agree to
    # about 4e-21 relative, checked here on the first
    with mpmath.workdps(30):
        cases = ((3, 0.99, 12), (2, 0.9, 14), (2, 0.5, 16))
        refs = [_mp_Vn(S0, [lam] * n, 20) for S0, lam, n in cases]
        assert abs(_mp_Vn(3, [0.99] * 12, 30) - refs[0]) <= 1e-19 * refs[0]
    for (S0, lam, n), ref in zip(cases, refs):
        _, Vn, err = _pgf_corrections(build_schedule([lam] * n), S0, n)
        assert abs(Vn - float(ref)) <= err, (S0, lam, n)
        assert err <= 1e-14 * Vn
        assert Vn == exact_Vn_Vpn(build_schedule([lam] * n), S0, n)[1]


def test_exact_Vn_matches_mpmath_on_a_mixed_schedule():
    # cycles that never or always duplicate sit between live ones: they add
    # no integral, though their maps enter the other cycles' substitution;
    # the run of lambda = 1 maps squares y_k to 0 at small x, where a
    # lambda = 1 cycle's g'(y) = 2y would vanish
    lams = [0.7, 1.0, 0.3, 0.0, 0.9] + [1.0] * 8 + [0.5, 0.0, 0.8, 0.99]
    n = len(lams)
    with mpmath.workdps(30):
        refs = {S0: _mp_Vn(S0, lams, 20) for S0 in (1, 2, 7)}
        assert abs(_mp_Vn(2, lams, 30) - refs[2]) <= 1e-19 * refs[2]
    for S0, ref in refs.items():
        A_seq, Vn, err = _pgf_corrections(build_schedule(lams), S0, n)
        assert [A_seq[c] for c, L in enumerate(lams) if L in (0.0, 1.0)] == [0.0] * 11
        assert abs(Vn - float(ref)) <= err, S0
        assert err <= 1e-14 * Vn


@pytest.mark.parametrize("S0", (1, 10, 100, 100_000))
def test_exact_corrections_match_mpmath_per_cycle(S0):
    # _compose's w form w + lambda w (1 - w) keeps every A_k within 2.1e-16
    # and V_n within 1.2e-16 of 30 digits here; as w (1 + lambda - lambda w),
    # the rounding of 1 + lambda repeated over the 20 cycles of 0.872 put
    # each A_k 1.9-2.0e-15 high and V_n 1.7-1.9e-15 high
    with mpmath.workdps(30):
        refs = _mp_A(S0, REF_LAMBDAS, 20)
        Vn_ref = float(mpmath.fsum(refs))
    A_seq, Vn, _ = exact_Vn_Vpn(build_schedule(REF_LAMBDAS), S0, 30)
    for k, ref in enumerate(refs):
        assert abs(A_seq[k] - float(ref)) <= 4e-16 * float(ref), k + 1
    assert abs(Vn - Vn_ref) <= 2e-16 * Vn_ref


@pytest.mark.parametrize("S0,want,digits", [
    (1, 0.056462, 6), (10, 0.0037844, 7), (100, 3.66525e-4, 9), (100_000, 3.652603e-7, 13),
])
def test_exact_Vn_reference_schedule(S0, want, digits):
    # the reference analysis is past any size program (S0 2^30 sizes); the
    # values are an independent quadrature's, to the digits it gave
    seqs = seqs_for(REF_LAMBDAS)
    A_seq, Vn, _ = exact_Vn_Vpn(build_schedule(REF_LAMBDAS), S0, 30)
    assert abs(Vn - want) <= 0.5 * 10.0**-digits
    env = moment_envelope(seqs, poisson_law(0.05), S0, 30, 1)
    assert env.Vn_lo <= Vn <= env.Vn_hi
    assert_per_cycle_sandwich(A_seq, seqs, S0, 1e-12, 0.0)


@st.composite
def large_instances(draw):
    """(S0, lambdas) with S0 2^n up to about 1e12."""
    n = draw(st.integers(min_value=1, max_value=39))
    S0 = draw(st.integers(min_value=1, max_value=10**12 >> n))
    return S0, draw(st.lists(lam_floats, min_size=n, max_size=n))


@given(large_instances())
@settings(max_examples=40, deadline=None)
def test_exact_Vn_within_envelope_at_scale(instance):
    S0, lams = instance
    n = len(lams)
    seqs = seqs_for(lams)
    A_seq, Vn, err = _pgf_corrections(build_schedule(lams), S0, n)
    assert err <= 1e-13 * Vn
    env = moment_envelope(seqs, poisson_law(0.05), S0, n, 1)
    assert env.Vn_lo * (1 - 1e-12) <= Vn <= env.Vn_hi * (1 + 1e-12)
    assert_per_cycle_sandwich(A_seq, seqs, S0, 1e-12, 0.0)


# ----- exact joint dynamic program -----

def test_exact_moments_internal_relations(monkeypatch):
    dp = exact_sample_moments(build_schedule([0.5] * 5), poisson_law(0.06), 2, 5, 4)
    assert dp.Vt == pytest.approx(dp.D_eta / 4 + (1 - 0.25) * dp.Rn, rel=1e-14)
    assert dp.D_zeta_mean == pytest.approx(dp.D_eta - dp.Rn, rel=1e-12)
    p = banded_moments(build_schedule([0.5] * 5), poisson_law(0.06), 2, 5)[1]
    assert p.sum() == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        exact_sample_moments(build_schedule([0.5]), poisson_law(0.06), 2, 1, 0)
    with pytest.raises(ValueError):
        exact_sample_moments(build_schedule([0.5]), poisson_law(0.06), 0, 1, 1)
    monkeypatch.setattr(_pmf, "_SIZE_CAP", 8)
    with pytest.raises(ValueError):
        banded_moments(build_schedule([0.5] * 4), poisson_law(0.06), 1, 4)


def test_exact_first_moment_identity():
    # E[M(zeta_n)] = mu (W_n - V_n) with the exact correction sum
    for S0, lams in ((1, [0.5] * 6), (3, [0.2, 0.9, 0.6, 0.4])):
        n = len(lams)
        sched = build_schedule(lams)
        seqs = seqs_for(lams)
        law = poisson_law(0.07)
        _, Vn, _ = exact_Vn_Vpn(sched, S0, n)
        dp = exact_sample_moments(sched, law, S0, n, 1)
        assert dp.M_eta == pytest.approx(law.mu * (seqs.W[n] - Vn), rel=1e-12)


@pytest.mark.parametrize("S0", [1, 2])
@pytest.mark.parametrize("law", [poisson_law(0.05), MutationLaw(mu=0.1, nu=0.04)])
def test_dynamic_program_vs_enumeration(S0, law):
    for lams in ([0.25, 0.5, 0.9], [0.5, 0.5, 0.5, 0.5], [1.0, 0.5]):
        n = len(lams)
        sched = build_schedule(lams)
        for ell in (1, 3):
            dp = exact_sample_moments(sched, law, S0, n, ell)
            tiny = enumerate_tiny(sched, law, S0, n, ell)
            for f in ("Et", "Vt", "Rn", "M_eta", "M2_eta", "D_eta"):
                assert getattr(dp, f) == pytest.approx(
                    getattr(tiny, f), rel=1e-12, abs=1e-14
                ), (f, S0, lams, ell)


def test_single_founder_single_cycle_mean():
    dp = exact_sample_moments(build_schedule([0.5]), poisson_law(0.05), 1, 1, 1)
    # half the time nothing happens; otherwise the sampled particle carries
    # the fresh increment with probability 1/2
    assert dp.Et == pytest.approx(0.05 / 4)


def test_exact_Vn_matches_enumeration():
    # V_n = W_n - E(t)/mu, with E(t) from the genealogy enumeration
    law = MutationLaw(mu=1.0, nu=0.0)
    for lams in ([0.25, 0.5, 0.9, 0.4], [1.0, 0.0, 0.7, 0.2], [0.05, 0.95, 0.3, 1.0]):
        sched = build_schedule(lams)
        W = seqs_for(lams).W
        for S0 in (1, 2):
            for n in range(5):
                _, Vn, _ = exact_Vn_Vpn(sched, S0, n)
                tiny = enumerate_tiny(sched, law, S0, n)
                assert Vn == pytest.approx(W[n] - tiny.Et / law.mu, abs=1e-13), (lams, S0, n)


# ----- exact moments from the marked generating function -----

# the reference analysis (Poisson mu = 0.05, ell = 28, n = 30): S0, then R_n
# and V(t), each with half a unit of its last digit, as printed from an
# mpmath evaluation of the same integrals at 30 digits and more
REF_TABLE = [
    (1, 0.02734908, 0.5e-8, 0.04845433, 0.5e-8),
    (10, 0.002859796, 0.5e-9, 0.02493371, 0.5e-8),
    (100, 2.863031e-4, 0.5e-10, 0.02245825, 0.5e-8),
    (10**5, 2.863342e-7, 0.5e-13, 0.0221831056, 0.5e-10),
]


@pytest.mark.parametrize("S0, Rn, Rn_tol, Vt, Vt_tol", REF_TABLE)
def test_marked_moments_reference_table(S0, Rn, Rn_tol, Vt, Vt_tol):
    law = poisson_law(0.05)
    dp = exact_sample_moments(build_schedule(REF_LAMBDAS), law, S0, 30, 28)
    assert 0.0 < dp.quad_error < 1e-13
    assert dp.Rn == pytest.approx(Rn, abs=Rn_tol)
    assert dp.Vt == pytest.approx(Vt, abs=Vt_tol)
    seqs = seqs_for(REF_LAMBDAS)
    env = moment_envelope(seqs, law, S0, 30, 28)
    assert env.Vt_lo <= dp.Vt <= env.Vt_hi
    assert dp.Rn <= env.Rn_hi
    # the two oracles integrate over the same panels: E(t) = mu (W_n - V_n)
    _, Vn, err = _pgf_corrections(build_schedule(REF_LAMBDAS), S0, 30)
    assert abs(dp.Et - law.mu * (seqs.W[30] - Vn)) <= dp.quad_error + law.mu * err


@given(large_instances(), st.sampled_from([poisson_law(0.05), MutationLaw(mu=0.1, nu=0.04)]),
       st.integers(min_value=1, max_value=30))
@example((2, [0.5] * 11), poisson_law(0.05), 10)
@example((3, [0.0, 1.0, 0.3, 0.9, 1e-6]), MutationLaw(mu=0.1, nu=0.04), 2)
@example((1, [0.9] * 9), poisson_law(0.05), 1)
@settings(max_examples=40, deadline=None)
def test_marked_moments_within_envelope_at_scale(instance, law, ell):
    S0, lams = instance
    n = len(lams)
    dp = exact_sample_moments(build_schedule(lams), law, S0, n, ell)
    env = moment_envelope(seqs_for(lams), law, S0, n, ell)
    tol = dp.quad_error + 1e-12 * env.Vt_hi
    assert env.Vt_lo - tol <= dp.Vt <= env.Vt_hi + tol
    assert dp.Rn <= env.Rn_hi * (1 + 1e-12) + dp.quad_error
    if S0 * math.prod(1.0 + L for L in lams) <= 2000:
        # the banded program leaves out at most tail_mass of the probability,
        # on which M, M^2 and M2 are at most n mu + n^2 (nu + mu^2)
        ref, tail = banded_record(build_schedule(lams), law, S0, n, ell)
        K = n * law.mu + n * n * law.second_moment
        allow = dp.quad_error + tail * K * (2.0 + 2.0 * dp.M_eta)
        for f in ("Et", "Vt", "Rn", "M_eta", "M2_eta", "D_eta", "D_zeta_mean"):
            assert abs(getattr(dp, f) - getattr(ref, f)) <= allow, f


@pytest.mark.parametrize("lams, n", [([0.5, 0.0, 1.0, 0.3], 4), ([0.5], 0), ([1.0, 0.0], 2)])
def test_fixed_schedule_never_reaches_the_size_program(monkeypatch, lams, n):
    def refuse(*args):
        raise RuntimeError("size program reached")

    monkeypatch.setattr(_pmf, "size_program", refuse)
    exact_sample_moments(build_schedule(lams), poisson_law(0.05), 2, n, 3)
    # a saturating schedule is refused, with the error exact_Vn_Vpn raises
    saturating = build_schedule(mm_C=10.0, mm_D=11.0)
    with pytest.raises(ValueError, match="population-dependent") as refused:
        exact_sample_moments(saturating, poisson_law(0.05), 1, 3, 1)
    with pytest.raises(ValueError) as same:
        exact_Vn_Vpn(saturating, 1, 3)
    assert str(refused.value) == str(same.value)


# ----- the banded programs against the dense loops they replaced -----

def dense_size_law_steps(sched, S0, n):
    """Probability vectors of S_k over sizes S0..S0 2^k, one full row per source."""
    lam = sched.prefix(n)
    p = np.array([1.0])
    steps = [p]
    for c in range(n):
        width = len(p)
        new = np.zeros(2 * (S0 + width - 1) - S0 + 1)
        for idx in range(width):
            if p[idx] == 0.0:
                continue
            s = S0 + idx
            new[idx : idx + s + 1] += p[idx] * binom_row(s, lam[c])
        p = new
        steps.append(p)
    return steps


def dense_exact_Vn_Vpn(sched, S0, n, steps):
    """(A_k sequence, V_n, V'_n) over dense laws."""
    lam = sched.prefix(n)
    A_seq = np.zeros(n)
    Vp = 0.0
    for k in range(1, n + 1):
        L = lam[k - 1]
        alpha_k = L / (1.0 + L)
        p = steps[k - 1]
        a_vals = np.array([harmonic.A(S0 + idx, L) for idx in range(len(p)) if p[idx] != 0.0])
        p_nz = p[p != 0.0]
        A_k = float(np.sum(p_nz * a_vals))
        A_seq[k - 1] = A_k
        Vp += A_k**2 + (1.0 - 2.0 * alpha_k) * A_k
    return A_seq, float(np.sum(A_seq)), Vp


def dense_exact_sample_moments(sched, law, S0, n, ell):
    """(Et, Vt, Rn, M_eta, M2_eta, D_eta) by the dense joint program."""
    lam = sched.prefix(n)
    mu, nu = law.mu, law.nu
    mu2 = mu * mu
    p, m1, m2, q = np.array([1.0]), np.zeros(1), np.zeros(1), np.zeros(1)
    for c in range(n):
        L = lam[c]
        width = len(p)
        new_len = 2 * (S0 + width - 1) - S0 + 1
        pn, m1n, m2n, qn = (np.zeros(new_len) for _ in range(4))
        for idx in range(width):
            if p[idx] == 0.0 and m2[idx] == 0.0:
                continue
            s = S0 + idx
            j = np.arange(s + 1)
            w = binom_row(s, L)
            m = (s + j).astype(float)
            frac = j / m
            sl = slice(idx, idx + s + 1)
            pn[sl] += w * p[idx]
            m1n[sl] += w * (m1[idx] + mu * frac * p[idx])
            qn[sl] += w * (q[idx] + (2.0 * mu * m1[idx] + (nu + mu2) * p[idx]) * frac)
            pair = np.zeros(2) if s == 1 else j * (j - 1) / (s * (s - 1.0))
            m2num = (
                (s * s * (1.0 + 2.0 * j / s) + s * s * pair) * m2[idx]
                + (j - s * pair) * q[idx]
                + 2.0 * mu * j * m * m1[idx]
                + (j * nu + j * j * mu2) * p[idx]
            )
            m2n[sl] += w * m2num / m**2
        p, m1, m2, q = pn, m1n, m2n, qn
    M_eta, EM2, M2_eta = float(m1.sum()), float(m2.sum()), float(q.sum())
    Rn = EM2 - M_eta**2
    D_eta = M2_eta - M_eta**2
    return D_eta / ell + (1.0 - 1.0 / ell) * Rn, Rn, M_eta, M2_eta, D_eta


def banded_moments(sched, law, S0, n):
    """(sizes, p, m1, m2, q, tail_mass) of S_n by the banded joint program.

    p = P(S_n = s), m1 = E[M(zeta_n) 1_{S_n=s}], m2 = E[M(zeta_n)^2
    1_{S_n=s}] and q = E[M2(zeta_n) 1_{S_n=s}] at each carried size s: the
    dense loop above as a four-row step of ``_pmf.size_program``, so it runs
    on any schedule, saturating ones too. tail_mass bounds 1 - sum(p), and
    sizes, p and tail_mass are ``size_law``'s own. Conditional on j
    duplications among s particles, the duplicating set is a uniform
    j-subset independent of the accumulated states, which closes the system
    of four restricted moments propagated here.
    """
    mu, nu = law.mu, law.nu
    mu2 = mu * mu

    def step(s, j, w, v):
        pb, m1b, m2b, qb = v
        m = s + j
        frac = j / m
        pair = j * (j - 1.0) / (s * np.maximum(s - 1.0, 1.0))
        m2num = (
            (s * s * (1.0 + 2.0 * j / s) + s * s * pair) * m2b
            + (j - s * pair) * qb
            + 2.0 * mu * j * m * m1b
            + (j * nu + j * j * mu2) * pb
        )
        yield w * pb
        yield w * (m1b + mu * frac * pb)
        yield w * m2num / m**2
        yield w * (qb + (2.0 * mu * m1b + (nu + mu2) * pb) * frac)

    for first, vals, tail in _pmf.size_program(sched, S0, n, 4, step):
        pass
    p, m1, m2, q = vals
    return first + np.arange(len(p)), p, m1, m2, q, tail


def banded_record(sched, law, S0, n, ell):
    """The ExactMoments record of the banded joint program, and its tail_mass."""
    _, _, m1, m2, q, tail = banded_moments(sched, law, S0, n)
    return _exact_moments(n, S0, ell, float(m1.sum()), float(q.sum()), float(m2.sum())), tail


DENSE_CASES = [
    [0.5] * 10,
    [0.9] * 7,
    [0.0, 0.5, 1.0, 0.3, 0.7],
    [1.0, 0.0, 0.7, 0.2, 0.6, 0.1],
    list(np.linspace(0.05, 0.95, 8)),
]


@pytest.mark.parametrize("lams", DENSE_CASES)
@pytest.mark.parametrize("S0", [1, 2, 3])
def test_banded_programs_match_dense_loops(S0, lams):
    n = len(lams) if S0 == 1 else min(len(lams), 8)
    sched = build_schedule(lams)
    # size law: the banded support is a window of the dense one, and the two
    # laws differ by no more than the mass the bands left out
    steps = dense_size_law_steps(sched, S0, n)
    dense = steps[-1]
    law = size_law(sched, S0, n)
    assert law.tail_mass <= n * 1e-17
    placed = np.zeros(len(dense))
    placed[law.sizes - S0] = law.probs
    assert np.sum(np.abs(placed - dense)) <= law.tail_mass + 1e-15
    bulk = dense >= 1e-3
    np.testing.assert_allclose(placed[bulk], dense[bulk], rtol=1e-13)
    sizes = S0 + np.arange(len(dense))
    assert law.mean() == pytest.approx(float(np.sum(sizes * dense)), rel=1e-13)
    for y in (0.0, 1.0, 5.0):
        assert law.harmonic_moment(y) == pytest.approx(
            float(np.sum(dense / (sizes + y))), rel=1e-13)
    # correction sums; A_k = H - 1/(1 + lambda) with H near 1, so its float
    # resolution is about 1e-16 absolute
    A_ref, Vn_ref, Vpn_ref = dense_exact_Vn_Vpn(sched, S0, n, steps)
    A_seq, Vn, Vpn = exact_Vn_Vpn(sched, S0, n)
    np.testing.assert_allclose(A_seq, A_ref, rtol=1e-13, atol=2e-16)
    assert Vn == pytest.approx(Vn_ref, rel=1e-13, abs=1e-16)
    assert Vpn == pytest.approx(Vpn_ref, rel=1e-13, abs=1e-16)
    # the joint moment program
    for mlaw in (poisson_law(0.07), MutationLaw(mu=0.1, nu=0.04)):
        tail = banded_moments(sched, mlaw, S0, n)[-1]
        assert tail <= n * 1e-17
        assert tail == pytest.approx(law.tail_mass, rel=1e-12, abs=1e-30)
        dp = exact_sample_moments(sched, mlaw, S0, n, 3)
        ref = dense_exact_sample_moments(sched, mlaw, S0, n, 3)
        for f, want in zip(("Vt", "Rn", "M_eta", "M2_eta", "D_eta"), ref):
            assert getattr(dp, f) == pytest.approx(want, rel=1e-13, abs=1e-16), f
        assert dp.Et == dp.M_eta


def test_size_laws_path():
    sched = build_schedule([0.5, 0.9, 0.3])
    laws = list(size_laws(sched, 2, 3))
    assert [law.n for law in laws] == [0, 1, 2, 3]
    assert laws[0].tail_mass == 0.0 and list(laws[0].sizes) == [2]
    for k, law in enumerate(laws):
        one = size_law(sched, 2, k)
        np.testing.assert_array_equal(one.sizes, law.sizes)
        np.testing.assert_array_equal(one.probs, law.probs)
        assert one.tail_mass == law.tail_mass


def test_banded_support_stays_narrow(monkeypatch):
    # the carried support, not S0 2^n, is checked against the cap
    lams = [0.5] * 12
    law = size_law(build_schedule(lams), 2, 12)
    assert law.sizes[-1] < 4000 < 2 * 2**12
    monkeypatch.setattr(_pmf, "_SIZE_CAP", 4000)
    assert size_law(build_schedule(lams), 2, 12).sizes[-1] == law.sizes[-1]
    monkeypatch.setattr(_pmf, "_SIZE_CAP", int(law.sizes[-1]) - 1)
    with pytest.raises(ValueError, match="above cap"):
        size_law(build_schedule(lams), 2, 12)
    assert float(law.probs.sum()) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("lam, S0, n", [(0.3, 3, 16), (0.5, 2, 14)])
def test_trimmed_support_keeps_its_budget(lam, S0, n):
    # each cycle drops the ends of the law worth at most 1e-17/4 apiece
    sched = build_schedule([lam] * n)
    law = size_law(sched, S0, n)
    assert law.tail_mass <= n * 1e-17
    assert law.mean() == pytest.approx(S0 * (1.0 + lam) ** n, rel=1e-13)
    for y in (0.0, 1.0, 5.0):
        hb = harmonic.harmonic_moment_bounds(sched, S0, n, y)
        assert hb.lower <= law.harmonic_moment(y) <= hb.upper, y
    sizes, p, *_, tail = banded_moments(sched, poisson_law(0.07), S0, n)
    np.testing.assert_array_equal(sizes, law.sizes)
    assert p.tobytes() == law.probs.tobytes()   # the size law's own steps, to the bit
    assert tail == law.tail_mass


def test_trimmed_mass_enters_tail_mass():
    # a lambda = 0 cycle cuts no row, so it moves the law only by the trim:
    # its tail_mass grows by exactly the mass of the sizes it dropped
    sched = build_schedule([0.5] * 10 + [0.0])
    *_, before, after = size_laws(sched, 2, 11)
    kept = np.isin(before.sizes, after.sizes)
    np.testing.assert_array_equal(after.probs, before.probs[kept])
    dropped = float(before.probs[~kept].sum())
    assert 0.0 < dropped <= 1e-17 / 2
    assert after.tail_mass - before.tail_mass == pytest.approx(dropped, rel=1e-9, abs=0.0)
    assert banded_moments(sched, poisson_law(0.07), 2, 11)[-1] == after.tail_mass


def test_trimmed_support_at_benchmark_scale():
    # S0 = 2, lambda = 0.5, n = 11: the untrimmed support held 2,002 sizes,
    # about half of them with a joint mass below 1e-17
    law = size_law(build_schedule([0.5] * 11), 2, 11)
    assert len(law.sizes) <= 1100
    assert law.tail_mass <= 11 * 1e-17


def test_size_law_saturating_schedule(monkeypatch):
    # lambda = D/(C + s) per source size, D/(C + S0) = 1 at the start
    sched = build_schedule(mm_C=10.0, mm_D=11.0)
    monkeypatch.setattr(_pmf, "_SIZE_CAP", 5000)
    laws = list(size_laws(sched, 1, 20))
    # the first step is the point mass at 2 (the band of a point mass is
    # its one size)
    np.testing.assert_array_equal(laws[1].probs[laws[1].sizes == 2], [1.0])
    assert laws[1].probs.sum() == 1.0
    law = laws[-1]
    assert law.sizes[-1] <= 5000 < 2**20
    assert law.tail_mass <= 20 * 1e-17
    assert float(law.probs.sum()) == pytest.approx(1.0, abs=1e-14)
    # one more cycle by hand from the law after 19: E[S_20] = E[S_19 (1 + lambda)]
    prev = laws[-2]
    lam = np.array([mm_lambda(int(s), 10.0, 11.0) for s in prev.sizes])
    assert law.mean() == pytest.approx(float(np.sum(prev.probs * prev.sizes * (1 + lam))),
                                       rel=1e-13)
    with pytest.raises(ValueError):
        size_law(build_schedule(mm_C=1.0, mm_D=3.0), 1, 2)
    with pytest.raises(ValueError):
        exact_Vn_Vpn(sched, 1, 2)



def test_size_programs_keep_their_bits():
    # float.hex of the size programs' outputs: any change in the order of
    # their arithmetic (trims, blocks, scatter, tail sums) shows here
    idx = (0, 100, 501, 152, 1001)
    sched = build_schedule([0.5] * 11)
    law = size_law(sched, 2, 11)
    assert (int(law.sizes[0]), len(law.sizes)) == (2, 1002)
    assert law.tail_mass.hex() == "0x1.b5ac94577004ep-57"
    assert math.fsum(law.probs.tolist()).hex() == "0x1.0000000000002p+0"
    assert [float(law.probs[i]).hex() for i in idx] == [
        "0x1.000000000000bp-22", "0x1.14908819daf86p-8", "0x1.ef071ffab92f1p-20",
        "0x1.71db298f8f887p-8", "0x1.8d0d334e7b708p-125"]
    _, p, m1, m2, q, tail = banded_moments(sched, poisson_law(0.05), 2, 11)
    dp = _exact_moments(11, 2, 10, float(m1.sum()), float(q.sum()), float(m2.sum()))
    assert [x.hex() for x in (tail, dp.Et, dp.Vt, dp.Rn)] == [
        "0x1.b5ac94577004ep-57", "0x1.6a396ca005314p-3", "0x1.27795886a076ep-5",
        "0x1.43a279b5e6f7ap-6"]
    assert p.tobytes() == law.probs.tobytes()
    assert [float(q[i]).hex() for i in idx] == [
        "0x0.0p+0", "0x1.a9255ad61d608p-11", "0x1.099d45d217db5p-21",
        "0x1.3c03a30c0392ap-10", "0x1.d9a16a3e063fep-127"]
    last = list(size_laws(build_schedule(mm_C=10.0, mm_D=11.0), 1, 20))[-1]
    assert (int(last.sizes[0]), len(last.sizes)) == (47, 299)
    assert last.tail_mass.hex() == "0x1.cc0c689885777p-55"
    assert math.fsum(last.probs.tolist()).hex() == "0x1.0000000000004p+0"
    assert float(last.probs[110]).hex() == "0x1.01a0944f8cea4p-5"
    assert float(last.probs[-1]).hex() == "0x1.9158517b6c726p-223"
    w = kinetics.exact_w_mean(kinetics.MMParams(C=1000.0, D=1001.0, S0=1), 20)
    assert w.hex() == "0x1.b9d6fe6c1ff2dp+2"


_ENVELOPE_BITS = {
    ("ref", "poisson", 1): (
        "0x1.355dc46982648p-1 0x1.32bcc0b25e5bdp-1 0x1.34e61443b7507p-1 0x1.a4a252768564ep-4 "
        "0x1.7e20d5b748182p-5 0x1.6155268c84880p-8 0x1.2b385e7bb22a6p-6 0x1.a4a252768564ep-4",
        "0x1.3e0357700730ap-1 0x1.15b16beae8785p-1 0x1.3e0357700730ap-1",
        "0x1.3e0357700730ap-2 0x1.dabf00cb937ffp-3 0x1.55e564cb7bb22p-2",
        "0x1.a80474955eeb8p-3 0x1.a80474955eeb8p-3 0x1.e7b49833eaef8p-3",
    ),
    ("ref", "poisson", 2): (
        "0x1.355dc46982648p-1 0x1.346e641dec3c5p-1 0x1.350df9a5a5ac7p-1 0x1.2b385e7bb22a6p-5 "
        "0x1.885dc349463f0p-6 0x1.f6b09ebb54474p-10 0x1.8ef5d34f98388p-7 0x1.2b385e7bb22a6p-5",
        "0x1.3e0357700730ap-1 0x1.23220fc1f2b5cp-1 0x1.3e0357700730ap-1",
        "0x1.3e0357700730ap-2 0x1.0840c813de3aep-2 0x1.4a46458a5162ap-2",
        "0x1.a80474955eeb8p-3 0x1.a80474955eeb8p-3 0x1.c8b6ef8624c61p-3",
    ),
    ("ref", "poisson", 10): (
        "0x1.355dc46982648p-1 0x1.35432b7d8e272p-1 0x1.35480179e91b0p-1 0x1.09f9378a657b0p-8 "
        "0x1.402df82d57300p-8 0x1.bed5e26da03f5p-13 0x1.b33ab7f9bd54fp-9 0x1.09f9378a657b0p-8",
        "0x1.3e0357700730ap-1 0x1.3b06c1403dcdap-1 0x1.3e0357700730ap-1",
        "0x1.3e0357700730ap-2 0x1.380a2b10746aap-2 0x1.4083b36061df0p-2",
        "0x1.a80474955eeb8p-3 0x1.a80474955eeb8p-3 0x1.aeb0146ba611dp-3",
    ),
    ("ref", "twopoint", 1): (
        "0x1.355dc46982648p+0 0x1.32bcc0b25e5bdp+0 0x1.34e61443b7507p+0 0x1.a4a252768564ep-4 "
        "0x1.a5ea3b7e24808p-5 0x1.5081db920450cp-8 0x1.2b385e7bb22a6p-6 0x1.a4a252768564ep-4",
        "0x1.1a1482d4e1e73p-1 0x1.e75c38dcf7019p-2 0x1.1a1482d4e1e73p-1",
        "0x1.1a1482d4e1e73p-2 0x1.9a8f6c102a34cp-3 0x1.3473268cc42f4p-2",
        "0x1.781b591bd7defp-3 0x1.781b591bd7defp-3 0x1.be6d0db0ddf46p-3",
    ),
    ("ref", "twopoint", 2): (
        "0x1.355dc46982648p+0 0x1.346e641dec3c5p+0 0x1.350df9a5a5ac7p+0 0x1.2b385e7bb22a6p-5 "
        "0x1.ceddf1c61d1c0p-6 0x1.dec0972c5043dp-10 0x1.8ef5d34f98388p-7 0x1.2b385e7bb22a6p-5",
        "0x1.1a1482d4e1e73p-1 0x1.007ae93b484d9p-1 0x1.1a1482d4e1e73p-1",
        "0x1.1a1482d4e1e73p-2 0x1.cdc29f435d680p-3 0x1.288b726312d01p-2",
        "0x1.781b591bd7defp-3 0x1.781b591bd7defp-3 0x1.9eadd7ec5a4bfp-3",
    ),
    ("ref", "twopoint", 10): (
        "0x1.355dc46982648p+0 0x1.35432b7d8e272p+0 0x1.35480179e91b0p+0 0x1.09f9378a657b0p-8 "
        "0x1.7b27abe73da60p-8 0x1.a98ebf43d591ap-13 0x1.b33ab7f9bd54fp-9 0x1.09f9378a657b0p-8",
        "0x1.1a1482d4e1e73p-1 0x1.173c555209b9bp-1 0x1.1a1482d4e1e73p-1",
        "0x1.1a1482d4e1e73p-2 0x1.146427cf318c3p-2 0x1.1d0ad22cb0628p-2",
        "0x1.781b591bd7defp-3 0x1.781b591bd7defp-3 0x1.80018205fe7d1p-3",
    ),
    ("edge", "poisson", 1): (
        "0x1.4054054054054p-4 0x1.2612612612613p-4 0x1.357afac767cadp-4 0x1.0690690690690p-3 "
        "0x1.29214dde0b176p-5 0x1.b91b91b91b91cp-8 0x1.b1e9a2e4e9219p-5 0x1.0690690690690p-3",
        "0x1.498aa08a86b05p-4 0x1.bed118643b6c0p-10 0x1.498aa08a86b05p-4",
        "0x1.498aa08a86b05p-5 0x0.0p+0 0x1.de1b47798c3c0p-5",
        "0x1.b76380b8b395cp-6 0x1.b76380b8b395cp-6 0x1.a1c7f445b6852p-5",
    ),
    ("edge", "poisson", 2): (
        "0x1.4054054054054p-4 0x1.2ed2ed2ed2ed3p-4 0x1.3918a8efb6890p-4 0x1.5e15e15e15e15p-4 "
        "0x1.2ff4ee4b451e3p-6 0x1.2612612612612p-8 0x1.21466c989b6bbp-5 0x1.5e15e15e15e15p-4",
        "0x1.498aa08a86b05p-4 0x1.ca018c678b650p-6 0x1.498aa08a86b05p-4",
        "0x1.498aa08a86b05p-5 0x0.0p+0 0x1.9587dc1d57f7ep-5",
        "0x1.b76380b8b395cp-6 0x1.b76380b8b395cp-6 0x1.410365201b7fap-5",
    ),
    ("edge", "poisson", 10): (
        "0x1.4054054054054p-4 0x1.3deae67aca313p-4 0x1.3e5b1a9eb4b4dp-4 0x1.81b33b76248fap-7 "
        "0x1.f637e4a9d50d0p-9 0x1.43fcf481f5c06p-11 0x1.3b92a5039246fp-7 0x1.81b33b76248fap-7",
        "0x1.498aa08a86b05p-4 0x1.31a5ef0c3b987p-4 0x1.498aa08a86b05p-4",
        "0x1.498aa08a86b05p-5 0x1.19c13d8df0808p-5 0x1.593c5fafd558cp-5",
        "0x1.b76380b8b395cp-6 0x1.b76380b8b395cp-6 0x1.e13d7e718556dp-6",
    ),
    ("edge", "twopoint", 1): (
        "0x1.4054054054054p-3 0x1.2612612612613p-3 0x1.357afac767cadp-3 0x1.0690690690690p-3 "
        "0x1.36b1de1eab90fp-5 0x1.a41a41a41a41ap-8 0x1.b1e9a2e4e9219p-5 0x1.0690690690690p-3",
        "0x1.251da48f744a0p-4 0x0.0p+0 0x1.251da48f744a0p-4",
        "0x1.251da48f744a0p-5 0x0.0p+0 0x1.c076939eca128p-5",
        "0x1.86d230bf45b80p-6 0x1.86d230bf45b80p-6 0x1.928a571ebfe75p-5",
    ),
    ("edge", "twopoint", 2): (
        "0x1.4054054054054p-3 0x1.2ed2ed2ed2ed3p-3 0x1.3918a8efb6890p-3 0x1.5e15e15e15e15p-4 "
        "0x1.52005fd393ac4p-6 0x1.1811811811811p-8 0x1.21466c989b6bbp-5 0x1.5e15e15e15e15p-4",
        "0x1.251da48f744a0p-4 0x1.61435f0a9df4cp-6 0x1.251da48f744a0p-4",
        "0x1.251da48f744a0p-5 0x0.0p+0 0x1.799dbc8459351p-5",
        "0x1.86d230bf45b80p-6 0x1.86d230bf45b80p-6 0x1.3413e2fb7ec02p-5",
    ),
    ("edge", "twopoint", 10): (
        "0x1.4054054054054p-3 0x1.3deae67aca313p-3 0x1.3e5b1a9eb4b4dp-3 0x1.81b33b76248fap-7 "
        "0x1.2a5090e7cc68ap-8 0x1.348f62c4ea0c8p-11 0x1.3b92a5039246fp-7 0x1.81b33b76248fap-7",
        "0x1.251da48f744a0p-4 0x1.0e5c3878b2ddfp-4 0x1.251da48f744a0p-4",
        "0x1.251da48f744a0p-5 0x1.ef3598c3e2e3ap-6 0x1.37c2ad9df1109p-5",
        "0x1.86d230bf45b80p-6 0x1.86d230bf45b80p-6 0x1.b88a48e5e7c97p-6",
    ),
}


def test_moment_envelope_keeps_its_bits():
    # float.hex of every MomentEnvelope field on a small grid: per (schedule,
    # law, S0) the eight fields that do not depend on ell, then (Vt_star,
    # Vt_lo, Vt_hi) at ell = 1, 2, 3
    scheds = {"ref": REF_LAMBDAS, "edge": [0.5, 0.0, 1.0, 0.3, 1.0, 0.0]}
    laws = {"poisson": poisson_law(0.05), "twopoint": MutationLaw(mu=0.1, nu=0.04)}
    for (sched, law, S0), (shared, *per_ell) in _ENVELOPE_BITS.items():
        n = len(scheds[sched])
        seqs = seqs_for(scheds[sched])
        for ell, want in zip((1, 2, 3), per_ell):
            env = moment_envelope(seqs, laws[law], S0, n, ell)
            assert (env.n, env.S0, env.ell) == (n, S0, ell)
            assert " ".join(x.hex() for x in (
                env.Et_star, env.Et_lo, env.Et_hi, env.TV_hi,
                env.Rn_hi, env.Zn_hi, env.Vn_lo, env.Vn_hi)) == shared, (sched, law, S0)
            assert " ".join(x.hex() for x in (env.Vt_star, env.Vt_lo, env.Vt_hi)) == want, (
                sched, law, S0, ell)


def test_size_support_reaches_the_mean():
    # the largest carried size is at least E[S_k] = S0 prod(1 + lambda), so
    # a fixed schedule whose mean passes the cap is refused only where the
    # cycles would pass it too
    rng = np.random.default_rng(7)
    lams = np.array([0.0, 1e-15, 1e-9, 0.01, 0.146, 0.5, 0.872, 0.99, 1 - 1e-12, 1.0])
    for _ in range(200):
        S0, n = int(rng.integers(1, 51)), int(rng.integers(1, 10))
        sched = [float(x) for x in rng.choice(lams, size=n)]
        for k, law in enumerate(size_laws(build_schedule(sched), S0, n)):
            assert law.sizes[-1] >= S0 * math.prod(1.0 + L for L in sched[:k]), (S0, sched, k)


def test_reference_analysis_refused_up_front():
    # S0 = 100, n = 30 has mean 2.5e9 sizes: the size law is refused before
    # the first cycle, where the cycles would pass the cap at cycle 16 after
    # minutes of work; the exact moments take the generating-function route
    sched = build_schedule(REF_LAMBDAS)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above cap 2000000"):
        size_law(sched, 100, 30)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    dp = exact_sample_moments(sched, poisson_law(0.05), 100, 30, 28)
    assert time.perf_counter() - start < 1.0
    assert dp.Rn == pytest.approx(2.863031e-4, abs=0.5e-10)
    assert dp.Vt == pytest.approx(0.02245825, abs=0.5e-8)

# ----- envelopes -----

def test_first_moment_envelope_zero_mean():
    seqs = seqs_for([0.5] * 4)
    env = moment_envelope(seqs, poisson_law(0.0), 2, 4, 1)
    assert env.Et_lo == 0.0 and env.Et_hi == 0.0


def test_first_moment_envelope_candidates():
    lams = [0.4, 0.8, 0.6]
    seqs = seqs_for(lams)
    for S0 in (1, 2, 5):
        env = moment_envelope(seqs, poisson_law(0.1), S0, 3, 1)
        cands = [seqs.vpp[3] / (S0 + 1), seqs.vp[3] / S0,
                 1.5 if S0 == 1 else 1.0 / (S0 - 1)]
        if S0 >= 2:
            cands.append(seqs.v[3] / (S0 - 1))
        assert env.Vn_hi == pytest.approx(min(cands), rel=1e-14)
        assert env.TV_hi == env.Vn_hi
        assert env.Vn_lo == pytest.approx(seqs.v[3] / (S0 + 1), rel=1e-14)


@pytest.mark.parametrize("S0,n,ell", [(2, 6, 3), (1, 5, 1), (3, 6, 2), (2, 6, 10)])
def test_envelopes_contain_exact_values(S0, n, ell):
    lams = [0.5] * n
    sched = build_schedule(lams)
    seqs = seqs_for(lams)
    law = poisson_law(0.08)
    dp = exact_sample_moments(sched, law, S0, n, ell)
    env = moment_envelope(seqs, law, S0, n, ell)
    assert env.Et_lo - 1e-12 <= dp.Et <= env.Et_hi + 1e-12
    assert env.Vt_lo - 1e-12 <= dp.Vt <= env.Vt_hi + 1e-12
    assert dp.Rn <= env.Rn_hi + 1e-12
    _, Vn, _ = exact_Vn_Vpn(sched, S0, n)
    assert env.Vn_lo - 1e-12 <= Vn <= env.Vn_hi + 1e-12


@pytest.mark.parametrize("lams", [
    [0.5] * 6,
    [0.9] * 5,
    [0.25 / k for k in range(1, 7)],
    [0.0, 0.5, 1.0, 0.3],
    [1.0, 0.0, 0.7, 0.2, 0.6, 0.1],
])
@pytest.mark.parametrize("S0", [1, 2, 3, 7])
def test_vpp_route_contains_exact_Vn(lams, S0):
    # the y = 1 route V_n <= v''_n/(S0 + 1) holds at every prefix
    sched = build_schedule(lams)
    seqs = seqs_for(lams)
    for n in range(1, len(lams) + 1):
        _, Vn, _ = exact_Vn_Vpn(sched, S0, n)
        assert Vn <= seqs.vpp[n] / (S0 + 1) + 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.25, 0.5, 0.872, 1.0])
def test_vpp_route_sharp_single_cycle(lam):
    # one founder, one cycle: V_1 = A(1, lambda) = alpha (1 - lambda)/2 exactly
    _, Vn, _ = exact_Vn_Vpn(build_schedule([lam]), 1, 1)
    alpha = lam / (1.0 + lam)
    assert Vn == pytest.approx(alpha * (1.0 - lam) / 2.0, rel=1e-12, abs=1e-15)
    assert seqs_for([lam]).vpp[1] / 2.0 == pytest.approx(Vn, rel=1e-12, abs=1e-15)


def test_sample_mean_orderings():
    # one draw sits below the infinite-population variance, three or more above
    sched = build_schedule([0.5] * 6)
    seqs = seqs_for([0.5] * 6)
    law = poisson_law(0.08)
    Et_star, _ = infinite_population_moments(seqs, law, 6, 1)
    for ell in (1, 3, 10):
        dp = exact_sample_moments(sched, law, 2, 6, ell)
        _, Vt_star = infinite_population_moments(seqs, law, 6, ell)
        assert dp.Et <= Et_star + 1e-15
        if ell == 1:
            assert dp.Vt < Vt_star
        else:
            assert dp.Vt > Vt_star


def test_variance_envelope_branches():
    seqs = seqs_for([0.5] * 6)
    law = poisson_law(0.08)
    v1 = moment_envelope(seqs, law, 2, 6, 1)
    v2 = moment_envelope(seqs, law, 2, 6, 2)
    v3 = moment_envelope(seqs, law, 2, 6, 3)
    _, star1 = infinite_population_moments(seqs, law, 6, 1)
    assert v1.Vt_hi == pytest.approx(star1)
    assert v3.Vt_lo == pytest.approx(star1 / 3)
    # the two-draw bracket is the union of the one-sided ones
    assert v2.Vt_lo <= min(v1.Vt_lo, v3.Vt_lo / 1.5) + 1e-12
    assert v2.Vt_hi >= v3.Vt_hi * (0.5 / (2 / 3)) - 1e-12
    assert v1.Vt_lo >= 0.0
    with pytest.raises(ValueError):
        moment_envelope(seqs, law, 2, 6, 0)


def test_envelope_growth_regimes():
    # summable efficiencies keep the envelopes bounded; a constant schedule
    # grows them without bound
    law = poisson_law(0.05)
    hi_sum, hi_const = [], []
    for n in (10, 40, 80):
        sum_seqs = seqs_for([2.0**-k for k in range(1, n + 1)])
        const_seqs = seqs_for([0.3] * n)
        hi_sum.append(moment_envelope(sum_seqs, law, 2, n, 5).Vt_hi)
        hi_const.append(moment_envelope(const_seqs, law, 2, n, 5).Vt_hi)
    assert hi_sum[-1] <= hi_sum[0] * 1.01
    assert hi_const[-1] > 2 * hi_const[0]


def test_moment_envelope_assembly():
    seqs = seqs_for([0.5] * 12)
    law = poisson_law(0.05)
    me = moment_envelope(seqs, law, 2, 12, 5)
    assert me.Zn_hi == pytest.approx(law.second_moment * me.Vn_hi)
    assert me.Et_lo <= me.Et_hi
    assert me.Vt_lo <= me.Vt_hi
    assert me.TV_hi == me.Vn_hi


# ----- remainder bounds -----

def Rn_recursion_bound(seqs, law, S0, n):
    """Upper bounds on R_0..R_n by stepping the one-step recursion.

    The proof check of ``rn_upper_bound``: each step adds the per-cycle
    coefficient bounds weighted by harmonic moments of the size, and
    contracts a running bound on the shifted second-moment functional. The
    final entry telescopes to the closed-form u/u'/u'' sums of the matching
    variant, which the tests below pin to 1e-12.
    """
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    nu, mu2 = law.nu, law.mu**2
    lam, alpha = seqs.lam, seqs.alpha
    R = np.zeros(n + 1)
    if S0 >= 2:
        pref = 1.0 / (S0 - 1)
        g = 0.0
        for k in range(1, n + 1):
            L, a = lam[k - 1], alpha[k - 1]
            gam_prev = float(seqs.gamma[k - 1])
            R[k] = (R[k - 1]
                    + nu * a * (1.0 - a) * gam_prev * pref
                    + mu2 * L * gam_prev * pref
                    + L * (1.0 - L) * g)
            g = g / (1.0 + L) + a * gam_prev * (nu + mu2) * pref
    else:
        g2, g3 = seqs.gamma_i[2], seqs.gamma_i[3]
        h = 0.0
        for k in range(1, n + 1):
            L, a = lam[k - 1], alpha[k - 1]
            R[k] = (R[k - 1]
                    + nu * a * (1.0 - a) * float(g2[k - 1]) / S0
                    + mu2 * L * float(g3[k - 1]) / (S0 + 1)
                    + L * (1.0 - L) * h)
            h = (1.0 - L / 2.0) * h + a * float(g2[k - 1]) * (nu + mu2) / S0
    return R


def test_remainder_closed_form_candidates():
    seqs = seqs_for([0.5] * 10)
    law = poisson_law(0.05)
    for S0 in (2, 5):
        uniform = 2.0 * law.second_moment / (S0 - 1)
        assert rn_upper_bound(seqs, law, S0, 10) <= uniform + 1e-15
    with pytest.raises(ValueError):
        rn_upper_bound(seqs, law, 0, 10)


@pytest.mark.parametrize("S0", [1, 2, 3, 10])
def test_remainder_recursion_telescopes(S0):
    law = poisson_law(0.05)
    for lams in ([0.5] * 10, [0.25, 0.9, 0.5, 0.1, 0.75],
                 list(np.linspace(0.05, 0.95, 12)), [1.0] * 4, [0.5, 1.0, 0.25]):
        n = len(lams)
        seqs = seqs_for(lams)
        R = Rn_recursion_bound(seqs, law, S0, n)
        assert len(R) == n + 1 and R[0] == 0.0
        assert np.all(np.diff(R) >= -1e-15)
        if S0 >= 2:
            closed = (law.nu * seqs.u[n] + law.mu**2 * seqs.up[n]
                      + law.second_moment * seqs.upp[n]) / (S0 - 1)
        else:
            closed = (law.nu * seqs.u_wide[n] / S0
                      + law.mu**2 * seqs.up_wide[n] / (S0 + 1)
                      + law.second_moment * seqs.upp_wide[n] / S0)
        assert R[-1] == pytest.approx(closed, rel=1e-12, abs=1e-15)


def test_remainder_recursion_zero_law():
    seqs = seqs_for([0.5] * 5)
    R = Rn_recursion_bound(seqs, MutationLaw(mu=0.0, nu=0.0), 2, 5)
    np.testing.assert_array_equal(R, 0.0)


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_remainder_recursion_under_uniform(lam):
    law = poisson_law(0.05)
    for S0 in (2, 3, 10):
        seqs = seqs_for([lam] * 30)
        R = Rn_recursion_bound(seqs, law, S0, 30)[-1]
        assert R <= 2.0 * law.second_moment / (S0 - 1) + 1e-15


def test_remainder_dominates_exact():
    law = poisson_law(0.07)
    for S0, lams in ((1, [0.5] * 6), (2, [0.3, 0.8, 0.5, 0.9]), (4, [0.6] * 5)):
        n = len(lams)
        dp = exact_sample_moments(build_schedule(lams), law, S0, n, 1)
        R = Rn_recursion_bound(seqs_for(lams), law, S0, n)
        assert dp.Rn <= R[-1] + 1e-13


def test_one_step_remainder_identity():
    # stepping the exact program one cycle matches the coefficient identity
    # R_{n+1} = R_n + E[D(zeta_n) B''(S_n)] + nu E[B(S_n)]
    #           + mu^2 (E[B2(S_n)] - E[1-H(S_n)]^2) + 2 mu Cov(M(zeta_n), 1-H(S_n))
    def residual(lams, law, S0, n):
        sched = build_schedule(lams)
        dpn = exact_sample_moments(sched, law, S0, n, 1)
        dpn1 = exact_sample_moments(sched, law, S0, n + 1, 1)
        sizes, p, m1, m2, q, _ = banded_moments(sched, law, S0, n)
        L = lams[n]
        fams = {int(s): harmonic.B_family(int(s), L) for s in sizes}
        EB = sum(p[i] * fams[int(s)].B for i, s in enumerate(sizes))
        EB2 = sum(p[i] * fams[int(s)].B2 for i, s in enumerate(sizes))
        E1H = sum(p[i] * (1 - fams[int(s)].H) for i, s in enumerate(sizes))
        EDBpp = sum(
            fams[int(s)].Bpp * (q[i] - m2[i]) for i, s in enumerate(sizes)
        )
        cov = sum(
            m1[i] * (1 - fams[int(s)].H) for i, s in enumerate(sizes)
        ) - dpn.M_eta * E1H
        rhs = (dpn.Rn + EDBpp + law.nu * EB
               + law.mu**2 * (EB2 - E1H**2) + 2 * law.mu * cov)
        return dpn1.Rn - rhs

    for S0 in (1, 2, 3):
        for lams in ([0.5] * 5, [0.25, 0.9, 0.5, 0.1, 0.75], [1.0, 0.5, 0.3, 0.8, 0.2]):
            for law in (poisson_law(0.07), MutationLaw(mu=0.1, nu=0.04)):
                for n in (1, 2, 4):
                    assert abs(residual(lams, law, S0, n)) < 1e-10, (S0, lams, n)


@given(
    st.lists(lam_floats, min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_envelope_containment_property(lams, S0, ell):
    sched = build_schedule(lams)
    n = len(lams)
    seqs = seqs_for(lams)
    law = MutationLaw(mu=0.09, nu=0.02)
    dp = exact_sample_moments(sched, law, S0, n, ell)
    env = moment_envelope(seqs, law, S0, n, ell)
    assert env.Et_lo - 1e-10 <= dp.Et <= env.Et_hi + 1e-10
    assert env.Vt_lo - 1e-10 <= dp.Vt <= env.Vt_hi + 1e-10
    assert dp.Rn <= env.Rn_hi + 1e-10
