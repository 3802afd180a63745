"""Certified moment envelopes for empirical mutation measures and samples.

The population after n cycles carries an empirical state distribution; its
mean measure has first moment mu (W_n - V_n) where V_n sums the per-cycle
harmonic corrections A_k = E[A(S_{k-1}, lambda_k)]. This module computes the
infinite-population values, exact finite-population references, and interval
envelopes assembled from the correction sums of the schedule module.

The exact values come from the size law's generating function G_n, its
maps composed once per abscissa by ``_compose``, on one panel set, the
panels of S_n's mean: the exact V_n is one integral per cycle over G_n (each
A_k substituted onto S_n's generating function), and the exact sample
moments (``exact_sample_moments``) are three integrals over the same
function with each particle's state carried as a mark. Each takes one
adaptive pass, O(n) per abscissa for every cycle, reports a quadrature
error bound and runs at any S0 and n; both need a fixed schedule, and
refuse a saturating one (whose efficiency depends on the size). The size
law, on either kind of schedule, comes from the dynamic program
``_pmf.size_program``: it carries the probability through one banded
binomial step per cycle, reports the mass it left out, and refuses a size
support past 2,000,000 sizes.

The sample variance of an ell-sample adds a remainder R_n (the variance of
the conditional mean). R_n is bounded by the closed-form u/u'/u'' sums that
the one-step recursion (per-cycle coefficient bounds, harmonic-moment
contractions) telescopes to; tests step the recursion and check the sums.
The exact values are the reference the envelopes are tested against;
enumeration in the simulator module provides a second, independent
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .schedule import DerivedSequences, EfficiencySchedule, Floats

if TYPE_CHECKING:
    import numpy as np

_PGF_RTOL = 1e-13   # each A_k's quadrature tolerance, relative to its first-pass estimate
MAX_POPULATION_CAP = 2**62 - 1  # the engine's sizes stay within it, so a doubling fits in int64


@dataclass(frozen=True)
class MutationLaw:
    """First two moments of the per-duplication state increment.

    ``poisson`` pins the increment law to Poisson(mu), which forces nu = mu
    and integer states. Without it only (mu, nu) matter analytically; for
    sampling, the simulator realizes the law as a two-point distribution.
    """

    mu: float
    nu: float
    poisson: bool = False

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
    return MutationLaw(mu=mu, nu=mu, poisson=True)


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

    Each cycle of ``_pmf.size_program`` drops the lightest ends of the law
    and cuts the binomial rows of the sizes it keeps to bands, so ``probs``
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


def size_laws(sched: EfficiencySchedule, S0: int, n: int):
    """Yield the exact laws of S_0..S_n, each as its banded binomial convolution ends.

    A support past 2,000,000 sizes raises ValueError (``_pmf.size_program``).
    """
    import numpy as np

    from ._pmf import size_program

    def step(s, j, w, v):
        return (w * v[0],)

    for c, (first, vals, tail) in enumerate(size_program(sched, S0, n, 1, step)):
        yield SizeLaw(n=c, sizes=first + np.arange(vals.shape[1]), probs=vals[0], tail_mass=tail)


def size_law(sched: EfficiencySchedule, S0: int, n: int) -> SizeLaw:
    """Exact law of S_n: the last of ``size_laws``."""
    for law in size_laws(sched, S0, n):
        pass
    return law


def exact_Vn_Vpn(
    sched: EfficiencySchedule,
    S0: int,
    n: int,
) -> tuple[np.ndarray, float, float]:
    """Exact correction sums (A_k sequence, V_n, V'_n).

    A_k averages the harmonic correction A(s, lambda_k) = E[s/(s + J)] -
    1/(1 + lambda_k), J ~ Binomial(s, lambda_k), over the law of S_{k-1};
    it is one integral over the generating function of S_n
    (``_pgf_corrections``), all cycles on one panel set at O(n) per
    abscissa, so the cost grows with n and log(S0 2^n), not with the size
    support. V'_n sums the scalar composition A_k^2 +
    (1 - 2 alpha_k) A_k. Needs a schedule that does not depend on the size.
    """
    import numpy as np

    A_seq, Vn, _ = _pgf_corrections(sched, S0, n)
    lam = np.asarray(sched.prefix(n))
    alpha = lam / (1.0 + lam)
    return A_seq, Vn, float(np.sum(A_seq**2 + (1.0 - 2.0 * alpha) * A_seq))


def _panels(S0: int, lam: Floats) -> np.ndarray:
    """Quadrature panel edges in w = 1 - x for S_n, of mean m: 0, 4^j / m below 1, and 1.

    A generating function G(1 - w) of a law of mean m falls off past w near
    1/m, so the panels follow that scale and widen geometrically after it.
    """
    import numpy as np

    edges = [0.0]
    w = 1.0 / (S0 * math.prod(1.0 + L for L in lam))
    while w < 1.0:
        edges.append(w)
        w *= 4.0
    edges.append(1.0)
    return np.array(edges)


def _compose(v: np.ndarray, lam: Floats):
    """Compose the size maps a <- a (1 - lambda + lambda a) in place, last cycle first.

    ``v`` holds each abscissa's a as w = 1 - a while w < 1/2 and as -a (sign
    bit set; -0.0 once a underflows) after: the w form is w <- w + lambda w
    (1 - w), the x form -a <- -a (1 - lambda + lambda a), and the switch at
    w in [1/2, 1] is exact, so neither side of a loses its small digits. The
    w form adds, as a factor 1 + lambda would round alike at each repeat of
    a lambda; the x form multiplies, which keeps an underflowed -0.0 negative.
    A cycle with lambda 0 is the identity and is skipped. Before each map
    the generator yields (lambda, a), so a caller reads a, not its encoding:
    one pass, O(n) per abscissa, serves every cycle. ``_a_log`` reads log a
    at the end.
    """
    import numpy as np

    for c in range(len(lam) - 1, -1, -1):
        L = lam[c]
        if L == 0.0:
            continue
        yield L, np.where(np.signbit(v), -v, 1.0 - v)
        np.subtract(v, 1.0, out=v, where=v >= 0.5)   # to x form, exactly: w in [1/2, 1]
        x = np.signbit(v)
        np.multiply(v, (1.0 - L) - L * v, out=v, where=x)
        np.add(v, L * v * (1.0 - v), out=v, where=~x)


def _a_log(v: np.ndarray) -> np.ndarray:
    """log a from ``_compose``'s w or x form: log1p(-w), or log x (-inf where x underflowed)."""
    import numpy as np

    loga = np.log1p(-v)
    with np.errstate(divide="ignore"):
        np.log(-v, out=loga, where=np.signbit(v))
    return loga


def _pgf_corrections(sched: EfficiencySchedule, S0: int, n: int) -> tuple[np.ndarray, float, float]:
    """(A_1..A_n, V_n, a bound on the error of V_n) from the size law's generating function.

    With g_k(x) = x (1 - lambda_k + lambda_k x), S_k has the generating
    function G_k = (g_1 o ... o g_k)^S0 (Harris 1963, ch. I), and averaging
    the representation A(s, lambda) = lambda (1 - lambda) int_0^1
    f(t)^s / f'(t)^2 dt (f = g_k) over S_{k-1} term by term gives
    A_k = lambda_k (1 - lambda_k) int_0^1 G_k(t) / g_k'(t)^2 dt. The
    substitution t = y_k(x) = g_{k+1} o ... o g_n(x), an increasing map of
    [0, 1] onto itself with G_k(y_k(x)) = G_n(x), puts every cycle on S_n's
    generating function:

        A_k = lambda_k (1 - lambda_k) int_0^1 G_n(x) y_k'(x) / g_k'(y_k)^2 dx,
        y_k' = prod_{j > k} g_j'(y_j),

    a positive integrand; a cycle with lambda_k in {0, 1} has A_k = 0 and no
    integral (at lambda = 1, g'(y) = 2y vanishes at y = 0). One ``_compose``
    pass per abscissa reads each y_k before its map and carries the running
    product y_k', so every cycle costs O(n) per abscissa, and G_n is
    exp(S0 log a). All cycles share ``_panels`` of the mean of S_n in w = 1 -
    x, the panels of ``_marked_sums``, in one call of the quadrature kernel,
    each with a tolerance of _PGF_RTOL times its first-pass estimate; V_n is
    the correctly rounded sum of the A_k, and its bound is the kernel's plus
    that rounding.
    """
    import numpy as np

    from .harmonic import _EPS, _gauss_kronrod

    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    lam = sched.prefix(n)
    live = [c for c, L in enumerate(lam) if 0.0 < L < 1.0]
    A_seq = np.zeros(n)
    if not live:
        return A_seq, 0.0, 0.0

    def integrand(w: np.ndarray) -> np.ndarray:
        v = w.copy()
        rows = []                      # the live cycles' integrands, last cycle first
        dy = 1.0                       # y_k'
        for L, a in _compose(v, lam):
            gp = (1.0 - L) + 2.0 * L * a
            if L < 1.0:
                rows.append(L * (1.0 - L) * dy / (gp * gp))
            dy = dy * gp
        return np.stack(rows[::-1]) * np.exp(S0 * _a_log(v))

    edges = _panels(S0, lam)
    A_seq[live], err = _gauss_kronrod(integrand, edges[:-1], edges[1:], 0.0, rtol=_PGF_RTOL)
    Vn = math.fsum(A_seq.tolist())
    return A_seq, Vn, err + _EPS * Vn


def _marked_sums(
    sched: EfficiencySchedule, law: MutationLaw, S0: int, n: int
) -> tuple[float, float, float, float]:
    """(M_eta, M2_eta, E[M^2], error bound) from the marked generating function.

    Each particle carries its state X as a mark (Harris 1963, ch. I and
    III). For one founder of state 0 before cycle k and a fixed x, carry the
    size PGF a = Psi_k(x), F_r = E[sum_i X_i^r x^S] (r = 0, 1, 2) and the
    pair sums P_rs = E[sum_{i != j} X_i^r X_j^s x^S] (rs = 00, 10, 11), from
    a = F0 = x and the rest 0 after cycle n, back through k = n..1 with
    g = 1 - lambda + 2 lambda a and old values on the right:

        F0 <- g F0                  F1 <- g F1 + mu lambda a F0
        F2 <- g F2 + lambda a (2 mu F1 + s2 F0)
        P00 <- g P00 + 2 lambda F0^2
        P10 <- g P10 + lambda (mu a P00 + F0 (2 F1 + mu F0))
        P11 <- g P11 + lambda a (s2 P00 + 2 mu P10) + 2 lambda F1 (F1 + mu F0)

    with s2 = nu + mu^2 and a stepped by ``_compose``: the pair sums split
    over which subtree, parent's or copy's, holds each particle, and a
    copy's increment is shared by its whole subtree. S0 independent
    founders give E[sum X x^S] = S0 F1 a^(S0-1), E[sum X^2 x^S] = S0 F2
    a^(S0-1) and E[(sum X)^2 x^S] = S0 (F2 + P11) a^(S0-1) + S0 (S0 - 1)
    F1^2 a^(S0-2), each power exp(k log a). As 1/s = int_0^1 x^(s-1) dx and
    1/s^2 = int_0^1 (-log x) x^(s-1) dx, the three moments are those sums
    over x, the last times -log x, integrated over ``_panels`` of the mean
    of S_n, the panels of ``_pgf_corrections``, in one call of the
    quadrature kernel at _PGF_RTOL. Each abscissa costs O(n), whatever the
    size support.

    The bound is on the absolute error of every moment formed from the
    three: the kernel's bound err covers their sum of errors, M_eta^2 adds
    2 M_eta err + err^2 to it, and the subtractions R_n = E[M^2] - M_eta^2
    and D_eta = M2_eta - M_eta^2 and the sample variance add a few roundings
    of E[M^2] and M2_eta. Relative to R_n that is E[M^2]/R_n times the
    relative error of E[M^2], the cancellation of the subtraction.
    """
    import numpy as np

    from .harmonic import _EPS, _gauss_kronrod

    lam = sched.prefix(n)
    mu, s2 = law.mu, law.second_moment
    edges = _panels(S0, lam)

    def power(k: int, loga: np.ndarray):
        return np.exp(k * loga) if k else 1.0     # 0 * -inf would be nan

    def integrand(w: np.ndarray) -> np.ndarray:
        x = 1.0 - w
        v = w.copy()
        F0, F1, F2, P00, P10, P11 = x, 0.0, 0.0, 0.0, 0.0, 0.0
        for L, a in _compose(v, lam):
            la = L * a
            g = (1.0 - L) + 2.0 * la
            P11 = g * P11 + la * (s2 * P00 + 2.0 * mu * P10) + 2.0 * L * F1 * (F1 + mu * F0)
            P10 = g * P10 + mu * la * P00 + L * F0 * (2.0 * F1 + mu * F0)
            P00 = g * P00 + 2.0 * L * F0 * F0
            F2 = g * F2 + la * (2.0 * mu * F1 + s2 * F0)
            F1 = g * F1 + mu * la * F0
            F0 = g * F0
        loga = _a_log(v)
        p1 = power(S0 - 1, loga)
        e3 = S0 * (F2 + P11) * p1
        if S0 > 1:
            e3 = e3 + S0 * (S0 - 1.0) * F1 * F1 * power(S0 - 2, loga)
        return np.stack(np.broadcast_arrays(S0 * F1 * p1, S0 * F2 * p1, -np.log1p(-w) * e3)) / x

    sums, err = _gauss_kronrod(integrand, edges[:-1], edges[1:], 0.0, rtol=_PGF_RTOL)
    M_eta, M2_eta, EM2 = sums.tolist()
    bound = err * max(1.0, 2.0 * M_eta + err) + 4.0 * _EPS * max(EM2, M2_eta)
    return M_eta, M2_eta, EM2, bound


@dataclass(frozen=True)
class ExactMoments:
    """Exact first and second moments of the empirical and sampled means.

    The values come from the marked generating function (``_marked_sums``),
    which drops no sizes and renormalizes nothing: ``quad_error`` bounds the
    absolute error of every moment here, the quadrature's error carried
    through the subtractions; relative to Rn it grows by the cancellation
    factor E[M^2]/Rn. The genealogy enumeration ``simulator.enumerate_tiny``
    sums every tree, and its records carry 0.0.
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
    quad_error: float  # bound on each moment's quadrature and rounding error


def exact_sample_moments(
    sched: EfficiencySchedule,
    law: MutationLaw,
    S0: int,
    n: int,
    ell: int,
) -> ExactMoments:
    """Exact first and second moments of empirical and sampled means.

    One quadrature pass over the marked generating function
    (``_marked_sums``), at any S0 and n. It needs a schedule that does not
    depend on the size, as ``exact_Vn_Vpn`` does: a saturating one raises
    the same ValueError (``EfficiencySchedule.prefix``).
    """
    if ell < 1:
        raise ValueError("sample size must be at least 1")
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    *sums, err = _marked_sums(sched, law, S0, n)
    return _exact_moments(n, S0, ell, *sums, quad_error=err)


def _exact_moments(n: int, S0: int, ell: int, M_eta: float, M2_eta: float, EM2: float,
                   quad_error: float = 0.0) -> ExactMoments:
    """The ExactMoments record of E[M(zeta_n)], E[M2(zeta_n)] and E[M(zeta_n)^2]."""
    Rn = EM2 - M_eta**2
    D_eta = M2_eta - M_eta**2
    Vt = D_eta / ell + (1.0 - 1.0 / ell) * Rn
    return ExactMoments(
        n=n, S0=S0, ell=ell, Et=M_eta, Vt=Vt, Rn=Rn,
        M_eta=M_eta, M2_eta=M2_eta, D_eta=D_eta, D_zeta_mean=M2_eta - EM2,
        quad_error=quad_error,
    )


def _uniform_V(S0: int) -> float:
    return 1.5 if S0 == 1 else 1.0 / (S0 - 1)


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


def moment_envelope(
    seqs: DerivedSequences, law: MutationLaw, S0: int, n: int, ell: int
) -> MomentEnvelope:
    """Every envelope for one instance.

    The upper bound on V_n is the least of its certified routes (the three
    schedule sums with their initial-size prefactors, and the uniform
    constant); it also bounds the total-variation distance to the limit law.
    V(t) sits above its infinite-population value and below it plus the
    remainder bound for ell >= 3, below it for a single draw, and on either
    side for ell = 2, which gets the union of both brackets.
    """
    Et_star, Vt_star = infinite_population_moments(seqs, law, n, ell)
    Rn_hi = rn_upper_bound(seqs, law, S0, n)
    v = float(seqs.v[n])
    cands = [float(seqs.vpp[n]) / (S0 + 1), float(seqs.vp[n]) / S0, _uniform_V(S0)]
    if S0 >= 2:
        cands.append(v / (S0 - 1))
    Vn_hi = min(cands)
    Vn_lo = v / (S0 + 1)
    W = float(seqs.W[n])
    Vt_lo = Vt_star if ell >= 3 else Vt_star - law.second_moment * _uniform_V(S0)
    Vt_hi = Vt_star if ell == 1 else Vt_star + (1.0 - 1.0 / ell) * Rn_hi
    return MomentEnvelope(
        n=n, S0=S0, ell=ell,
        Et_star=Et_star, Vt_star=Vt_star,
        Et_lo=law.mu * (W - Vn_hi), Et_hi=law.mu * (W - Vn_lo),
        Vt_lo=max(Vt_lo, 0.0), Vt_hi=Vt_hi,
        TV_hi=Vn_hi,
        Rn_hi=Rn_hi,
        Zn_hi=law.second_moment * Vn_hi,
        Vn_lo=Vn_lo, Vn_hi=Vn_hi,
    )
