"""Certified moment envelopes for empirical mutation measures and samples.

The population after n cycles carries an empirical state distribution; its
mean measure has first moment mu (W_n - V_n) where V_n sums the per-cycle
harmonic corrections A_k = E[A(S_{k-1}, lambda_k)]. This module computes the
infinite-population values, exact finite-population references, and interval
envelopes assembled from the correction sums of the schedule module. The
exact V_n is one quadrature per cycle over the size law's generating
function, all cycles in one adaptive pass, with a reported error bound; it
runs at any S0 and n. The size law and the joint size-and-moment law are
dynamic programs, each a reduction of one banded binomial step per cycle
that reports the mass it left out.

The sample variance of an ell-sample adds a remainder R_n (the variance of
the conditional mean). R_n is bounded by iterating the one-step recursion
with per-cycle coefficient bounds and harmonic-moment contractions; the
iteration telescopes to the closed-form u/u'/u'' sums, which is asserted by
tests. The exact dynamic program is the reference the envelopes are tested
against; enumeration in the simulator module provides a second, independent
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .schedule import DerivedSequences, EfficiencySchedule

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SIZE_CAP = 2_000_000
_PGF_RTOL = 1e-13   # each A_k's quadrature tolerance, relative to its first-pass estimate
MAX_POPULATION_CAP = 2**62 - 1  # the engine's sizes stay within it, so a doubling fits in int64


@dataclass(frozen=True)
class MutationLaw:
    """First two moments of the per-duplication state increment.

    ``poisson`` pins the increment law to Poisson(mu), which forces nu = mu
    and integer states. Without it only (mu, nu) matter analytically; for
    sampling, the simulator realizes the law as a two-point distribution.
    ``integer_valued`` marks laws whose states live on a lattice, enabling
    total-variation computations.
    """

    mu: float
    nu: float
    poisson: bool = False
    integer_valued: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.nu)):
            raise ValueError("moment parameters must be finite")
        if self.mu < 0.0 or self.nu < 0.0:
            raise ValueError("moment parameters must be nonnegative")
        if self.poisson and self.nu != self.mu:
            raise ValueError("a Poisson increment law has variance equal to its mean")

    @property
    def second_moment(self) -> float:
        return self.nu + self.mu**2

    def two_point_support(self) -> tuple[float, float]:
        """Atom location a and its probability p for the two-point realization.

        The law p delta_a + (1-p) delta_0 with a = (nu + mu^2)/mu and
        p = mu^2/(nu + mu^2) matches (mu, nu) exactly. Requires mu > 0 unless
        the law is degenerate at zero, and a finite a.
        """
        if self.mu == 0.0:
            if self.nu == 0.0:
                return 0.0, 0.0
            raise ValueError("no two-point law on {0, a} has zero mean and positive variance")
        if self.second_moment == 0.0:
            # nu = 0 and mu^2 underflows: the point mass at mu
            return self.mu, 1.0
        a = self.second_moment / self.mu
        if not math.isfinite(a):
            raise ValueError(f"two-point atom (nu + mu^2)/mu overflows at mu={self.mu}, nu={self.nu}")
        return a, self.mu**2 / self.second_moment


def poisson_law(mu: float) -> MutationLaw:
    """Poisson(mu) increments."""
    return MutationLaw(mu=mu, nu=mu, poisson=True, integer_valued=True)


@dataclass(frozen=True)
class MomentEnvelope:
    """Every envelope the analysis provides, for one (schedule, law, S0, n, ell)."""

    n: int
    S0: int
    ell: int
    Et_star: float
    Vt_star: float
    Et_lo: float
    Et_hi: float
    Vt_lo: float
    Vt_hi: float
    TV_hi: float
    Rn_hi: float
    Zn_hi: float
    Vn_lo: float
    Vn_hi: float


@dataclass(frozen=True)
class SizeLaw:
    """Exact distribution of the population size after n cycles.

    Each cycle drops the lightest ends of the law and cuts the binomial rows
    of the sizes it keeps to bands (``_pmf.size_transitions``), so ``probs``
    carries all but at most ``tail_mass`` of the probability: the dropped
    mass plus Hoeffding's bound on the mass the bands left out, weighted by
    each source size's probability, summed over cycles. That is at most
    ``_pmf.BAND_TAIL`` = 1e-17 per cycle. ``probs`` is not renormalized.
    """

    n: int
    sizes: np.ndarray
    probs: np.ndarray
    tail_mass: float

    def mean(self) -> float:
        return float((self.sizes * self.probs).sum())

    def harmonic_moment(self, y: float) -> float:
        """E[1/(S_n + y)]; requires the support to stay right of -y."""
        if (self.sizes + y <= 0).any():
            raise ValueError("shift reaches the support")
        return float((self.probs / (self.sizes + y)).sum())


def infinite_population_moments(
    seqs: DerivedSequences, law: MutationLaw, n: int, ell: int
) -> tuple[float, float]:
    """Large-population limits of E(t) and V(t) for an ell-sample mean."""
    if ell < 1:
        raise ValueError("sample size must be at least 1")
    Et = law.mu * float(seqs.W[n])
    Vt = (law.nu * float(seqs.W[n]) + law.mu**2 * float(seqs.Wp[n])) / ell
    return Et, Vt


def _size_laws(sched: EfficiencySchedule, S0: int, n: int, cap: int):
    import numpy as np

    from ._pmf import size_transitions

    lam_at = sched.efficiency(S0, n)
    first, p, tail = S0, np.ones(1), 0.0
    yield SizeLaw(n=0, sizes=np.array([S0]), probs=p, tail_mass=tail)
    for c in range(n):
        dropped, first, width, bands = size_transitions(lam_at, c, first, p, cap)
        tail += dropped
        new = np.zeros(width)
        for b in bands:
            pb = p[b.rows]
            new += b.scatter(pb[:, None] * b.w, width)
            tail += float(pb @ b.cut)
        p = new
        yield SizeLaw(n=c + 1, sizes=first + np.arange(width), probs=p, tail_mass=tail)


def size_laws(
    sched: EfficiencySchedule, S0: int, n: int, cap: int = DEFAULT_SIZE_CAP
) -> list[SizeLaw]:
    """Exact laws of S_0..S_n, by one banded binomial convolution per cycle."""
    return list(_size_laws(sched, S0, n, cap))


def size_law(
    sched: EfficiencySchedule, S0: int, n: int, cap: int = DEFAULT_SIZE_CAP
) -> SizeLaw:
    """Exact law of S_n, by one banded binomial convolution per cycle."""
    *_, last = _size_laws(sched, S0, n, cap)
    return last


def exact_Vn_Vpn(
    sched: EfficiencySchedule,
    S0: int,
    n: int,
) -> tuple[np.ndarray, float, float]:
    """Exact correction sums (A_k sequence, V_n, V'_n).

    A_k averages the harmonic correction A(s, lambda_k) = E[s/(s + J)] -
    1/(1 + lambda_k), J ~ Binomial(s, lambda_k), over the law of S_{k-1};
    it is one integral over the size law's generating function
    (``_pgf_corrections``), so the cost grows with n and log(S0 2^n), not
    with the size support. V'_n sums the scalar composition A_k^2 +
    (1 - 2 alpha_k) A_k. Needs a schedule that does not depend on the size.
    """
    import numpy as np

    A_seq, Vn, _ = _pgf_corrections(sched, S0, n)
    lam = np.asarray(sched.prefix(n))
    alpha = lam / (1.0 + lam)
    return A_seq, Vn, float(np.sum(A_seq**2 + (1.0 - 2.0 * alpha) * A_seq))


def _pgf_corrections(sched: EfficiencySchedule, S0: int, n: int) -> tuple[np.ndarray, float, float]:
    """(A_1..A_n, V_n, a bound on the error of V_n) from the size law's generating function.

    With g_k(x) = x (1 - lambda_k + lambda_k x), S_k has the generating
    function G_k = (g_1 o ... o g_k)^S0 (Harris 1963, ch. I), and averaging
    the representation A(s, lambda) = lambda (1 - lambda) int_0^1
    f(t)^s / f'(t)^2 dt (f = g_k) over S_{k-1} term by term gives

        A_k = lambda_k (1 - lambda_k) int_0^1 G_k(t) / g_k'(t)^2 dt,

    a positive integrand; a cycle with lambda_k in {0, 1} has A_k = 0. Each
    integral runs in w = 1 - t over panels with edges at 4^j / m_k, m_k the
    mean of S_k, where G_k(1 - w) falls off, and up to 1. The maps compose
    in w form, w <- w (1 + lambda - lambda w), while w < 1/2 and in x form
    after, so neither loses the small side's digits, and G_k is
    exp(S0 log x). All cycles' panels go through one call of the quadrature
    kernel, each with a tolerance of _PGF_RTOL times its first-pass
    estimate; V_n is the correctly rounded sum of the A_k, and its bound is
    the kernel's plus that rounding.
    """
    import numpy as np

    from .harmonic import _EPS, _QUAD_BUDGET, _gauss_kronrod

    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    lam = np.array(sched.prefix(n), dtype=float)
    A_seq = np.zeros(n)
    a: list[float] = []
    b: list[float] = []
    cyc: list[int] = []
    m = float(S0)
    for c, L in enumerate(lam.tolist()):
        m *= 1.0 + L
        if 0.0 < L < 1.0:
            edges = [0.0]
            w = 1.0 / m
            while w < 1.0:
                edges.append(w)
                w *= 4.0
            edges.append(1.0)
            a += edges[:-1]
            b += edges[1:]
            cyc += [c] * (len(edges) - 1)
    if not cyc:
        return A_seq, 0.0, 0.0
    rate = lam * (1.0 - lam)
    maps = [(c, L) for c, L in enumerate(lam.tolist()) if L > 0.0][::-1]

    def integrand(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # rows come in ascending cycle order, so cycles >= c are a suffix
        starts = np.searchsorted(rows, np.arange(n)).tolist()
        v = w.copy()   # w while below 1/2, then -x (signbit set; -0.0 when x underflows)
        for c, L in maps:
            u = v[starts[c]:]
            np.subtract(u, 1.0, out=u, where=u >= 0.5)   # to x form, exactly: w in [1/2, 1]
            u *= np.where(np.signbit(u), 1.0 - L, 1.0 + L) - L * u
        xf = np.signbit(v)
        logx = np.log1p(-v)
        with np.errstate(divide="ignore"):
            np.log(-v, out=logx, where=xf)
        lr = lam[rows][:, None]
        gp = (1.0 - lr) + 2.0 * lr * (1.0 - w)
        return rate[rows][:, None] * np.exp(S0 * logx) / (gp * gp)

    sums, err = _gauss_kronrod(integrand, a, b, 0.0, _QUAD_BUDGET,
                               group=np.array(cyc), rtol=_PGF_RTOL)
    A_seq[: len(sums)] = sums
    Vn = math.fsum(A_seq.tolist())
    return A_seq, Vn, err + _EPS * Vn


@dataclass(frozen=True)
class ExactMoments:
    """Exact sample/empirical moments from the joint size-moment dynamic program.

    Per final size s the program tracks the probability and the restricted
    expectations of the empirical mean, its square, and the empirical second
    moment, so every downstream quantity (including the remainder R_n and the
    variance of an ell-sample mean) follows exactly. ``tail_mass`` bounds the
    probability the trimmed, banded binomial steps left out of ``p``; the
    steps are those of ``size_law``, so ``sizes`` and ``tail_mass`` are its
    own. Nothing is renormalized.
    """

    n: int
    S0: int
    ell: int
    Et: float
    Vt: float
    Rn: float
    M_eta: float       # E[M(zeta_n)]
    M2_eta: float      # E[M2(zeta_n)]
    D_eta: float       # M2_eta - M_eta^2
    D_zeta_mean: float  # E[D(zeta_n)] = D_eta - Rn
    sizes: np.ndarray
    p: np.ndarray      # P(S_n = s)
    m1: np.ndarray     # E[M(zeta_n) 1_{S_n=s}]
    m2: np.ndarray     # E[M(zeta_n)^2 1_{S_n=s}]
    q: np.ndarray      # E[M2(zeta_n) 1_{S_n=s}]
    tail_mass: float   # bound on 1 - sum(p), from the trims and band cuts


def exact_sample_moments(
    sched: EfficiencySchedule,
    law: MutationLaw,
    S0: int,
    n: int,
    ell: int,
    cap: int = DEFAULT_SIZE_CAP,
) -> ExactMoments:
    """Exact first and second moments of empirical and sampled means.

    One banded pass per cycle over the size support. Conditional on j
    duplications among s particles, the duplicating set is a uniform j-subset
    independent of the accumulated states, which closes the system of four
    restricted moments propagated here.
    """
    import numpy as np

    from ._pmf import size_transitions

    if ell < 1:
        raise ValueError("sample size must be at least 1")
    mu, nu = law.mu, law.nu
    mu2 = mu * mu
    lam_at = sched.efficiency(S0, n)
    vals = np.array([[1.0], [0.0], [0.0], [0.0]])  # p, m1, m2, q at S_0
    first, tail = S0, 0.0
    for c in range(n):
        dropped, first, width, bands = size_transitions(lam_at, c, first, vals[0], cap)
        tail += dropped
        new = np.zeros((4, width))
        for b in bands:
            s, j, w = b.s, b.j, b.w
            pb, m1b, m2b, qb = vals[:, b.rows, None]
            m = s + j
            frac = j / m
            pair = j * (j - 1.0) / (s * np.maximum(s - 1.0, 1.0))
            m2num = (
                (s * s * (1.0 + 2.0 * j / s) + s * s * pair) * m2b
                + (j - s * pair) * qb
                + 2.0 * mu * j * m * m1b
                + (j * nu + j * j * mu2) * pb
            )
            new[0] += b.scatter(w * pb, width)
            new[1] += b.scatter(w * (m1b + mu * frac * pb), width)
            new[2] += b.scatter(w * m2num / m**2, width)
            new[3] += b.scatter(w * (qb + (2.0 * mu * m1b + (nu + mu2) * pb) * frac), width)
            tail += float(pb[:, 0] @ b.cut)
        vals = new
    p, m1, m2, q = vals
    M_eta = float(m1.sum())
    EM2 = float(m2.sum())
    M2_eta = float(q.sum())
    Rn = EM2 - M_eta**2
    D_eta = M2_eta - M_eta**2
    Vt = D_eta / ell + (1.0 - 1.0 / ell) * Rn
    return ExactMoments(
        n=n, S0=S0, ell=ell, Et=M_eta, Vt=Vt, Rn=Rn,
        M_eta=M_eta, M2_eta=M2_eta, D_eta=D_eta, D_zeta_mean=M2_eta - EM2,
        sizes=first + np.arange(len(p)), p=p, m1=m1, m2=m2, q=q, tail_mass=tail,
    )


def _uniform_V(S0: int) -> float:
    return 1.5 if S0 == 1 else 1.0 / (S0 - 1)


@dataclass(frozen=True)
class FirstMomentEnvelope:
    Et_lo: float
    Et_hi: float
    TV_hi: float
    Vn_lo: float
    Vn_hi: float


def first_moment_envelope(
    seqs: DerivedSequences,
    law: MutationLaw,
    S0: int,
    n: int,
) -> FirstMomentEnvelope:
    """Bracket E[M(zeta_n)] and the total-variation distance to the limit law.

    The correction sum V_n is bracketed by every certified route (the three
    schedule-specific sums with their initial-size prefactors, plus the
    uniform constant); the smallest upper bound wins. The same minimum bounds
    the total-variation distance.
    """
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    v = float(seqs.v[n])
    vp = float(seqs.vp[n])
    vpp = float(seqs.vpp[n])
    cands = [vpp / (S0 + 1), vp / S0, _uniform_V(S0)]
    if S0 >= 2:
        cands.append(v / (S0 - 1))
    Vn_hi = min(cands)
    Vn_lo = v / (S0 + 1)
    W = float(seqs.W[n])
    return FirstMomentEnvelope(
        Et_lo=law.mu * (W - Vn_hi),
        Et_hi=law.mu * (W - Vn_lo),
        TV_hi=Vn_hi,
        Vn_lo=Vn_lo,
        Vn_hi=Vn_hi,
    )


def rn_upper_bound(seqs: DerivedSequences, law: MutationLaw, S0: int, n: int) -> float:
    """Smallest certified upper bound on the remainder R_n."""
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    nu, mu2 = law.nu, law.mu**2
    cands = [
        nu * float(seqs.u_wide[n]) / S0
        + mu2 * float(seqs.up_wide[n]) / (S0 + 1)
        + (nu + mu2) * float(seqs.upp_wide[n]) / S0
    ]
    if S0 >= 2:
        pref = 1.0 / (S0 - 1)
        cands.append((nu * float(seqs.u[n]) + mu2 * float(seqs.up[n])
                      + (nu + mu2) * float(seqs.upp[n])) * pref)
        cands.append(2.0 * (nu + mu2) * pref)
    else:
        cands.append(2.0 * nu + 1.5 * mu2 + 4.0 * (nu + mu2))
    return min(cands)


@dataclass(frozen=True)
class VarianceEnvelope:
    Vt_lo: float
    Vt_hi: float
    Rn_hi: float


def variance_envelope(
    seqs: DerivedSequences,
    law: MutationLaw,
    S0: int,
    n: int,
    ell: int,
) -> VarianceEnvelope:
    """Bracket V(t) for an ell-sample mean.

    For ell >= 3 the sample variance sits above its infinite-population value
    and below it plus the remainder bound. A single draw sits below instead.
    ell = 2 can fall on either side, so it gets the union of both brackets.
    """
    if ell < 1:
        raise ValueError("sample size must be at least 1")
    _, Vt_star = infinite_population_moments(seqs, law, n, ell)
    Rn_hi = rn_upper_bound(seqs, law, S0, n)
    slack_lo = (law.nu + law.mu**2) * _uniform_V(S0)
    if ell >= 3:
        lo, hi = Vt_star, Vt_star + (1.0 - 1.0 / ell) * Rn_hi
    elif ell == 1:
        lo, hi = Vt_star - slack_lo, Vt_star
    else:
        lo, hi = Vt_star - slack_lo, Vt_star + (1.0 - 1.0 / ell) * Rn_hi
    return VarianceEnvelope(Vt_lo=max(lo, 0.0), Vt_hi=hi, Rn_hi=Rn_hi)


def Rn_recursion_bound(
    seqs: DerivedSequences, law: MutationLaw, S0: int, n: int
) -> np.ndarray:
    """Upper bounds on R_0..R_n by stepping the one-step recursion.

    Each step adds the per-cycle coefficient bounds weighted by harmonic
    moments of the size, and contracts a running bound on the shifted
    second-moment functional. The final entry telescopes to the closed-form
    u/u'/u'' sums of the matching variant, which tests pin to 1e-12.
    """
    import numpy as np

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


def theorem_k_bound(n: int, mu0: float, L0: int, S0: int) -> float:
    """Crude distance bound n L0 mu0 / S0 for the general offspring model."""
    if mu0 < 0.0:
        raise ValueError("mu0 must be nonnegative")
    if L0 < 1 or S0 < 1:
        raise ValueError("L0 and S0 must be at least 1")
    return n * L0 * mu0 / S0


def moment_envelope(
    seqs: DerivedSequences, law: MutationLaw, S0: int, n: int, ell: int
) -> MomentEnvelope:
    """Assemble the full envelope record for one instance."""
    Et_star, Vt_star = infinite_population_moments(seqs, law, n, ell)
    fme = first_moment_envelope(seqs, law, S0, n)
    ve = variance_envelope(seqs, law, S0, n, ell)
    return MomentEnvelope(
        n=n, S0=S0, ell=ell,
        Et_star=Et_star, Vt_star=Vt_star,
        Et_lo=fme.Et_lo, Et_hi=fme.Et_hi,
        Vt_lo=ve.Vt_lo, Vt_hi=ve.Vt_hi,
        TV_hi=fme.TV_hi,
        Rn_hi=ve.Rn_hi,
        Zn_hi=law.second_moment * fme.Vn_hi,
        Vn_lo=fme.Vn_lo, Vn_hi=fme.Vn_hi,
    )
