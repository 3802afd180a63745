"""Certified moment envelopes for empirical mutation measures and samples.

The population after n cycles carries an empirical state distribution; its
mean measure has first moment mu (W_n - V_n) where V_n sums the per-cycle
harmonic corrections A_k = E[A(S_{k-1}, lambda_k)]. This module computes the
infinite-population values, exact finite-population references, and interval
envelopes assembled from the correction sums of the schedule module. The
exact V_n is one quadrature per cycle over the size law's generating
function, all cycles in one adaptive pass, with a reported error bound; it
runs at any S0 and n. The size law and the joint size-and-moment law are
one dynamic program, ``_pmf.size_program``, with two steps: it carries the
probability (and the four restricted moments) through one banded binomial
step per cycle, reports the mass it left out, and refuses a size support
past 2,000,000 sizes.

The sample variance of an ell-sample adds a remainder R_n (the variance of
the conditional mean). R_n is bounded by the closed-form u/u'/u'' sums that
the one-step recursion (per-cycle coefficient bounds, harmonic-moment
contractions) telescopes to; tests step the recursion and check the sums.
The exact dynamic program is the reference the envelopes are tested
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


def _size_laws(sched: EfficiencySchedule, S0: int, n: int):
    import numpy as np

    from ._pmf import size_program

    def step(s, j, w, v):
        return (w * v[0],)

    for c, (first, vals, tail) in enumerate(size_program(sched, S0, n, 1, step)):
        yield SizeLaw(n=c, sizes=first + np.arange(vals.shape[1]), probs=vals[0], tail_mass=tail)


def size_laws(sched: EfficiencySchedule, S0: int, n: int) -> list[SizeLaw]:
    """Exact laws of S_0..S_n, by one banded binomial convolution per cycle.

    A support past 2,000,000 sizes raises ValueError (``_pmf.size_program``).
    """
    return list(_size_laws(sched, S0, n))


def size_law(sched: EfficiencySchedule, S0: int, n: int) -> SizeLaw:
    """Exact law of S_n, by one banded binomial convolution per cycle."""
    for law in _size_laws(sched, S0, n):
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

    from .harmonic import _EPS, _gauss_kronrod

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

    sums, err = _gauss_kronrod(integrand, a, b, 0.0, group=np.array(cyc), rtol=_PGF_RTOL)
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
    program is ``size_law``'s with three more rows, so ``sizes``, ``p`` and
    ``tail_mass`` are its own. Nothing is renormalized.
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
) -> ExactMoments:
    """Exact first and second moments of empirical and sampled means.

    One banded pass of ``_pmf.size_program`` per cycle over the size
    support. Conditional on j duplications among s particles, the
    duplicating set is a uniform j-subset independent of the accumulated
    states, which closes the system of four restricted moments propagated
    here.
    """
    import numpy as np

    from ._pmf import size_program

    if ell < 1:
        raise ValueError("sample size must be at least 1")
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

    for first, vals, tail in size_program(sched, S0, n, 4, step):
        pass
    p, m1, m2, q = vals
    return _exact_moments(n, S0, ell, first + np.arange(len(p)), p, m1, m2, q, tail)


def _exact_moments(n: int, S0: int, ell: int, sizes, p, m1, m2, q, tail: float) -> ExactMoments:
    """The ExactMoments record of the per-size restricted sums p, m1, m2 and q."""
    M_eta = float(m1.sum())
    EM2 = float(m2.sum())
    M2_eta = float(q.sum())
    Rn = EM2 - M_eta**2
    D_eta = M2_eta - M_eta**2
    Vt = D_eta / ell + (1.0 - 1.0 / ell) * Rn
    return ExactMoments(
        n=n, S0=S0, ell=ell, Et=M_eta, Vt=Vt, Rn=Rn,
        M_eta=M_eta, M2_eta=M2_eta, D_eta=D_eta, D_zeta_mean=M2_eta - EM2,
        sizes=sizes, p=p, m1=m1, m2=m2, q=q, tail_mass=tail,
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
