"""Exact references, envelopes, and the remainder recursion."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from branchpcr import harmonic
from branchpcr._pmf import binom_row
from branchpcr.moments import (
    MutationLaw,
    _pgf_corrections,
    Rn_recursion_bound,
    exact_Vn_Vpn,
    exact_sample_moments,
    first_moment_envelope,
    infinite_population_moments,
    moment_envelope,
    poisson_law,
    rn_upper_bound,
    size_law,
    size_laws,
    theorem_k_bound,
    variance_envelope,
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
    assert law.nu == 0.05 and law.poisson and law.integer_valued
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


def test_size_law_cap():
    with pytest.raises(ValueError):
        size_law(build_schedule([0.5] * 3), 1, 3, cap=7)
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

def _mp_Vn(S0, lam, n, nodes):
    """V_n on the constant schedule lam, by Gauss-Legendre on the PGF integrals in mpmath.

    A_k = lam (1 - lam) int_0^1 G_k(t)/g'(t)^2 dt, G_k = (g o ... o g)^S0
    (k maps), g(x) = x (1 - lam + lam x). The panels run in w = 1 - t up to
    1/2, cut at 4^j/m_k where G_k falls off, and in t up to 1/2, cut at
    (1 - lam)/(2 lam) 4^i where 1/g'^2 peaks.
    """
    L = mpmath.mpf(lam)
    half = mpmath.mpf(1) / 2
    nodes, weights = mpmath.mp.gauss_quadrature(nodes, "legendre")
    m, V = mpmath.mpf(S0), mpmath.mpf(0)
    for k in range(1, n + 1):
        m *= 1 + L
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
                    for _ in range(k):
                        y = y * (1 - L + L * y)
                    V += L * (1 - L) * h * wt * y**S0 / (1 - L + 2 * L * t) ** 2
    return V


def test_exact_Vn_matches_mpmath():
    # the banded program's H - 1/(1 + lambda) was off by 8.9e-14, 4.3e-14 and
    # 1.1e-14 relative on these; 20 and 30 Legendre nodes per panel agree to
    # about 4e-21 relative, checked here on the first
    with mpmath.workdps(30):
        cases = ((3, 0.99, 12), (2, 0.9, 14), (2, 0.5, 16))
        refs = [_mp_Vn(S0, lam, n, 20) for S0, lam, n in cases]
        assert abs(_mp_Vn(*cases[0], 30) - refs[0]) <= 1e-19 * refs[0]
    for (S0, lam, n), ref in zip(cases, refs):
        _, Vn, err = _pgf_corrections(build_schedule([lam] * n), S0, n)
        assert abs(Vn - float(ref)) <= err, (S0, lam, n)
        assert err <= 1e-14 * Vn
        assert Vn == exact_Vn_Vpn(build_schedule([lam] * n), S0, n)[1]


@pytest.mark.parametrize("S0,want,digits", [
    (1, 0.056462, 6), (10, 0.0037844, 7), (100, 3.66525e-4, 9), (100_000, 3.652603e-7, 13),
])
def test_exact_Vn_reference_schedule(S0, want, digits):
    # the reference analysis is past any size program (S0 2^30 sizes); the
    # values are an independent quadrature's, to the digits it gave
    seqs = seqs_for(REF_LAMBDAS)
    A_seq, Vn, _ = exact_Vn_Vpn(build_schedule(REF_LAMBDAS), S0, 30)
    assert abs(Vn - want) <= 0.5 * 10.0**-digits
    fme = first_moment_envelope(seqs, poisson_law(0.05), S0, 30)
    assert fme.Vn_lo <= Vn <= fme.Vn_hi
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
    fme = first_moment_envelope(seqs, poisson_law(0.05), S0, n)
    assert fme.Vn_lo * (1 - 1e-12) <= Vn <= fme.Vn_hi * (1 + 1e-12)
    assert_per_cycle_sandwich(A_seq, seqs, S0, 1e-12, 0.0)


# ----- exact joint dynamic program -----

def test_exact_moments_internal_relations():
    dp = exact_sample_moments(build_schedule([0.5] * 5), poisson_law(0.06), 2, 5, 4)
    assert dp.Vt == pytest.approx(dp.D_eta / 4 + (1 - 0.25) * dp.Rn, rel=1e-14)
    assert dp.D_zeta_mean == pytest.approx(dp.D_eta - dp.Rn, rel=1e-12)
    assert dp.p.sum() == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        exact_sample_moments(build_schedule([0.5]), poisson_law(0.06), 2, 1, 0)
    with pytest.raises(ValueError):
        exact_sample_moments(build_schedule([0.5]), poisson_law(0.06), 0, 1, 1)
    with pytest.raises(ValueError):
        exact_sample_moments(build_schedule([0.5] * 4), poisson_law(0.06), 1, 4, 1, cap=8)


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
        dp = exact_sample_moments(sched, mlaw, S0, n, 3)
        assert dp.tail_mass <= n * 1e-17
        assert dp.tail_mass == pytest.approx(law.tail_mass, rel=1e-12, abs=1e-30)
        ref = dense_exact_sample_moments(sched, mlaw, S0, n, 3)
        for f, want in zip(("Vt", "Rn", "M_eta", "M2_eta", "D_eta"), ref):
            assert getattr(dp, f) == pytest.approx(want, rel=1e-13, abs=1e-16), f
        assert dp.Et == dp.M_eta


def test_size_laws_path():
    sched = build_schedule([0.5, 0.9, 0.3])
    laws = size_laws(sched, 2, 3)
    assert [law.n for law in laws] == [0, 1, 2, 3]
    assert laws[0].tail_mass == 0.0 and list(laws[0].sizes) == [2]
    for k, law in enumerate(laws):
        one = size_law(sched, 2, k)
        np.testing.assert_array_equal(one.sizes, law.sizes)
        np.testing.assert_array_equal(one.probs, law.probs)
        assert one.tail_mass == law.tail_mass


def test_banded_support_stays_narrow():
    # the carried support, not S0 2^n, is checked against the cap
    lams = [0.5] * 12
    law = size_law(build_schedule(lams), 2, 12)
    assert law.sizes[-1] < 4000 < 2 * 2**12
    assert size_law(build_schedule(lams), 2, 12, cap=4000).sizes[-1] == law.sizes[-1]
    with pytest.raises(ValueError, match="above cap"):
        size_law(build_schedule(lams), 2, 12, cap=law.sizes[-1] - 1)
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
    dp = exact_sample_moments(sched, poisson_law(0.07), S0, n, 3)
    np.testing.assert_array_equal(dp.sizes, law.sizes)
    assert dp.p.tobytes() == law.probs.tobytes()   # the size law's own steps, to the bit
    assert dp.tail_mass == law.tail_mass


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
    dp = exact_sample_moments(sched, poisson_law(0.07), 2, 11, 3)
    assert dp.tail_mass == after.tail_mass


def test_trimmed_support_at_benchmark_scale():
    # S0 = 2, lambda = 0.5, n = 11: the untrimmed support held 2,002 sizes,
    # about half of them with a joint mass below 1e-17
    law = size_law(build_schedule([0.5] * 11), 2, 11)
    assert len(law.sizes) <= 1100
    assert law.tail_mass <= 11 * 1e-17


def test_size_law_saturating_schedule():
    # lambda = D/(C + s) per source size, D/(C + S0) = 1 at the start
    sched = build_schedule(mm_C=10.0, mm_D=11.0)
    laws = size_laws(sched, 1, 20, cap=5000)
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


# ----- envelopes -----

def test_first_moment_envelope_zero_mean():
    seqs = seqs_for([0.5] * 4)
    fme = first_moment_envelope(seqs, poisson_law(0.0), 2, 4)
    assert fme.Et_lo == 0.0 and fme.Et_hi == 0.0


def test_first_moment_envelope_candidates():
    lams = [0.4, 0.8, 0.6]
    seqs = seqs_for(lams)
    for S0 in (1, 2, 5):
        fme = first_moment_envelope(seqs, poisson_law(0.1), S0, 3)
        cands = [seqs.vpp[3] / (S0 + 1), seqs.vp[3] / S0,
                 1.5 if S0 == 1 else 1.0 / (S0 - 1)]
        if S0 >= 2:
            cands.append(seqs.v[3] / (S0 - 1))
        assert fme.Vn_hi == pytest.approx(min(cands), rel=1e-14)
        assert fme.TV_hi == fme.Vn_hi
        assert fme.Vn_lo == pytest.approx(seqs.v[3] / (S0 + 1), rel=1e-14)


@pytest.mark.parametrize("S0,n,ell", [(2, 6, 3), (1, 5, 1), (3, 6, 2), (2, 6, 10)])
def test_envelopes_contain_exact_values(S0, n, ell):
    lams = [0.5] * n
    sched = build_schedule(lams)
    seqs = seqs_for(lams)
    law = poisson_law(0.08)
    dp = exact_sample_moments(sched, law, S0, n, ell)
    fme = first_moment_envelope(seqs, law, S0, n)
    ve = variance_envelope(seqs, law, S0, n, ell)
    assert fme.Et_lo - 1e-12 <= dp.Et <= fme.Et_hi + 1e-12
    assert ve.Vt_lo - 1e-12 <= dp.Vt <= ve.Vt_hi + 1e-12
    assert dp.Rn <= ve.Rn_hi + 1e-12
    _, Vn, _ = exact_Vn_Vpn(sched, S0, n)
    assert fme.Vn_lo - 1e-12 <= Vn <= fme.Vn_hi + 1e-12


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
    v1 = variance_envelope(seqs, law, 2, 6, 1)
    v2 = variance_envelope(seqs, law, 2, 6, 2)
    v3 = variance_envelope(seqs, law, 2, 6, 3)
    _, star1 = infinite_population_moments(seqs, law, 6, 1)
    assert v1.Vt_hi == pytest.approx(star1)
    assert v3.Vt_lo == pytest.approx(star1 / 3)
    # the two-draw bracket is the union of the one-sided ones
    assert v2.Vt_lo <= min(v1.Vt_lo, v3.Vt_lo / 1.5) + 1e-12
    assert v2.Vt_hi >= v3.Vt_hi * (0.5 / (2 / 3)) - 1e-12
    assert v1.Vt_lo >= 0.0
    with pytest.raises(ValueError):
        variance_envelope(seqs, law, 2, 6, 0)


def test_envelope_growth_regimes():
    # summable efficiencies keep the envelopes bounded; a constant schedule
    # grows them without bound
    law = poisson_law(0.05)
    hi_sum, hi_const = [], []
    for n in (10, 40, 80):
        sum_seqs = seqs_for([2.0**-k for k in range(1, n + 1)])
        const_seqs = seqs_for([0.3] * n)
        hi_sum.append(variance_envelope(sum_seqs, law, 2, n, 5).Vt_hi)
        hi_const.append(variance_envelope(const_seqs, law, 2, n, 5).Vt_hi)
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
        L = lams[n]
        fams = {int(s): harmonic.B_family(int(s), L) for s in dpn.sizes}
        EB = sum(dpn.p[i] * fams[int(s)].B for i, s in enumerate(dpn.sizes))
        EB2 = sum(dpn.p[i] * fams[int(s)].B2 for i, s in enumerate(dpn.sizes))
        E1H = sum(dpn.p[i] * (1 - fams[int(s)].H) for i, s in enumerate(dpn.sizes))
        EDBpp = sum(
            fams[int(s)].Bpp * (dpn.q[i] - dpn.m2[i]) for i, s in enumerate(dpn.sizes)
        )
        cov = sum(
            dpn.m1[i] * (1 - fams[int(s)].H) for i, s in enumerate(dpn.sizes)
        ) - dpn.M_eta * E1H
        rhs = (dpn.Rn + EDBpp + law.nu * EB
               + law.mu**2 * (EB2 - E1H**2) + 2 * law.mu * cov)
        return dpn1.Rn - rhs

    for S0 in (1, 2, 3):
        for lams in ([0.5] * 5, [0.25, 0.9, 0.5, 0.1, 0.75], [1.0, 0.5, 0.3, 0.8, 0.2]):
            for law in (poisson_law(0.07), MutationLaw(mu=0.1, nu=0.04)):
                for n in (1, 2, 4):
                    assert abs(residual(lams, law, S0, n)) < 1e-10, (S0, lams, n)


def test_theorem_k_bound_values():
    assert theorem_k_bound(2, 1.0, 8, 4) == pytest.approx(4.0)
    assert theorem_k_bound(5, 0.0, 3, 2) == 0.0
    with pytest.raises(ValueError):
        theorem_k_bound(2, -1.0, 3, 2)
    with pytest.raises(ValueError):
        theorem_k_bound(2, 1.0, 0, 2)


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
    fme = first_moment_envelope(seqs, law, S0, n)
    ve = variance_envelope(seqs, law, S0, n, ell)
    assert fme.Et_lo - 1e-10 <= dp.Et <= fme.Et_hi + 1e-10
    assert ve.Vt_lo - 1e-10 <= dp.Vt <= ve.Vt_hi + 1e-10
    assert dp.Rn <= ve.Rn_hi + 1e-10
