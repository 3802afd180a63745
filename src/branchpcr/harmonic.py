"""Harmonic moments of Bernoulli duplication rounds, evaluated exactly.

One duplication round turns k particles into M_k = k + Binomial(k, lambda)
particles. Everything here is an expectation of a rational function of M_k,
computed by summing over the duplication count, so the monotonicity and
sandwich properties used by the moment envelopes can be tested without
sampling noise. Pairwise functionals (those involving two tagged particles)
are reduced to the duplication count via exchangeability: given j duplications
among k particles, two tagged ones both duplicated with probability
j(j-1)/(k(k-1)) and exactly one did with probability 2j(k-j)/(k(k-1)).

Also provides the integral representation of the centered harmonic mean A(k)
(an adaptive Simpson quadrature of f^k f'^(-2l) for the offspring generating
function f) and interval bounds for harmonic moments of the population size
after n cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pmf import binom_row
from .schedule import EfficiencySchedule, derived_sequences, gamma_sequence

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(
    round(0.05 * i, 2) for i in range(1, 20)
) + (1.0,)

DEFAULT_Y_GRID: tuple[float, ...] = (-1.0, 0.0, 0.5, 1.0, 5.0)

_QUAD_TOL = 1e-12
_QUAD_BUDGET = 10**6


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("particle count k must be at least 1")


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"duplication probability {lam} outside [0, 1]")


def _binom_weights(k: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Duplication counts 0..k and their Binomial(k, lambda) weights."""
    return np.arange(k + 1), binom_row(k, lam)


def binomial_mix(k: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the post-duplication count M_k = k + Binomial(k, lambda).

    Returns (values, probabilities) with values k..2k.
    """
    _check_k(k)
    _check_lambda(lam)
    j, w = _binom_weights(k, lam)
    return k + j, w


def H_y(k: int, lam: float, y: float) -> float:
    """Shifted harmonic mean E[(k + y)/(M_k + y)]. Requires k + y > 0."""
    _check_k(k)
    _check_lambda(lam)
    if not k + y > 0:
        raise ValueError(f"k + y = {k + y} must be positive")
    j, w = _binom_weights(k, lam)
    return float(np.sum(w * (k + y) / (k + j + y)))


def H(k: int, lam: float) -> float:
    """Harmonic mean E[k/M_k]."""
    return H_y(k, lam, 0.0)


def A(k: int, lam: float) -> float:
    """Centered harmonic mean H(k) - 1/(1 + lambda), the per-cycle correction."""
    return H(k, lam) - 1.0 / (1.0 + lam)


def G(k: int, lam: float) -> float:
    """Second harmonic moment E[(k/M_k)^2]."""
    _check_k(k)
    _check_lambda(lam)
    j, w = _binom_weights(k, lam)
    return float(np.sum(w * (k / (k + j)) ** 2))


def power_moment(k: int, lam: float, power: int) -> float:
    """E[(k/M_k)^power] for integer power >= 1."""
    _check_k(k)
    _check_lambda(lam)
    if power < 1:
        raise ValueError("power must be at least 1")
    j, w = _binom_weights(k, lam)
    return float(np.sum(w * (k / (k + j)) ** power))


@dataclass(frozen=True)
class HarmonicFamily:
    """The variance-recursion coefficients at one (k, lambda)."""

    k: int
    lam: float
    H: float
    G: float
    A: float
    B: float    # E[(M_k - k)/M_k^2]
    Bp: float   # V[k/M_k]
    Bpp: float  # (k/2) E[(L_1 - L_2)^2 / M_k^2]; 0 by convention at k = 1
    B1: float   # k^2 E[L_1 L_2 / M_k^2]; 1 by convention at k = 1
    B2: float   # E[(M_k - k)^2 / M_k^2]


def B_family(k: int, lam: float) -> HarmonicFamily:
    """All second-order coefficients at (k, lambda), exactly."""
    _check_k(k)
    _check_lambda(lam)
    j, w = _binom_weights(k, lam)
    m = (k + j).astype(float)
    h = float(np.sum(w * k / m))
    g = float(np.sum(w * (k / m) ** 2))
    b = float(np.sum(w * j / m**2))
    bp = g - h * h
    b2 = float(np.sum(w * (j / m) ** 2))
    if k == 1:
        bpp, b1 = 0.0, 1.0
    else:
        pair = j * (j - 1) / (k * (k - 1))
        bpp = float(np.sum(w * j * (k - j) / ((k - 1) * m**2)))
        b1 = float(np.sum(w * k**2 * (1.0 + 2.0 * j / k + pair) / m**2))
    return HarmonicFamily(k=k, lam=lam, H=h, G=g, A=h - 1.0 / (1.0 + lam),
                          B=b, Bp=bp, Bpp=bpp, B1=b1, B2=b2)


@dataclass(frozen=True)
class CFamily:
    """Shifted variance-recursion coefficients at one (k, lambda, y)."""

    k: int
    lam: float
    y: float
    C: float    # k^2 (k + y) E[L_1 L_2 / (M_k^2 (M_k + y))]; 0 by convention at k = 1
    Cp: float   # E[(M_k - 1)(M_k - k) / (M_k^2 (M_k + y))]
    Cpp: float  # E[k (M_k - k) / (M_k^2 (M_k + y))]
    Hy: float


def C_family(k: int, lam: float, y: float) -> CFamily:
    """The C coefficients at (k, lambda, y). Requires k + y > 0."""
    _check_k(k)
    _check_lambda(lam)
    if not k + y > 0:
        raise ValueError(f"k + y = {k + y} must be positive")
    j, w = _binom_weights(k, lam)
    m = (k + j).astype(float)
    cp = float(np.sum(w * (m - 1.0) * j / (m**2 * (m + y))))
    cpp = float(np.sum(w * k * j / (m**2 * (m + y))))
    if k == 1:
        c = 0.0
    else:
        pair = j * (j - 1) / (k * (k - 1))
        ell1ell2 = 1.0 + 2.0 * j / k + pair
        c = float(np.sum(w * k**2 * (k + y) * ell1ell2 / (m**2 * (m + y))))
    hy = float(np.sum(w * (k + y) / (m + y)))
    return CFamily(k=k, lam=lam, y=y, C=c, Cp=cp, Cpp=cpp, Hy=hy)


def taylor_sandwich(k: int, lam: float) -> tuple[float, float]:
    """Polynomial envelope (H_upper, G_lower) around the harmonic moments.

    Third-order expansions of 1/x and 1/x^2 at the mean growth factor; the
    exact H(k) never exceeds H_upper and the exact G(k) never falls below
    G_lower.
    """
    _check_k(k)
    _check_lambda(lam)
    n2 = lam * (1.0 - lam)
    g1 = n2 / (1.0 + lam) ** 2
    g2 = n2 * (1.0 - 2.0 * lam) / (1.0 + lam) ** 3
    g3 = n2 * (1.0 + 3.0 * (k - 2) * n2) / (1.0 + lam) ** 3
    h_tilde = 1.0 + g1 / k - g2 / k**2 + g3 / k**3
    g_tilde = 1.0 + 3.0 * g1 / k - 4.0 * g2 / k**2 + 2.0 * g3 / k**3
    return h_tilde / (1.0 + lam), g_tilde / (1.0 + lam) ** 2


def _adaptive_simpson(g, a: float, b: float, tol: float, budget: int) -> float:
    """Classic adaptive Simpson with Richardson correction, absolute tolerance."""
    evals = 0

    def f(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > budget:
            raise RuntimeError(f"quadrature exceeded {budget} evaluations")
        return g(x)

    def recurse(a, b, fa, fm, fb, whole, tol):
        m = 0.5 * (a + b)
        flm = f(0.5 * (a + m))
        frm = f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return (recurse(a, m, fa, flm, fm, left, 0.5 * tol)
                + recurse(m, b, fm, frm, fb, right, 0.5 * tol))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol)


def A_integral(k: int, ell: int, lam: float) -> float:
    """Quadrature of the representation integral I(k, ell).

    I(k, ell) is the integral over [0, 1] of f(t)^k f'(t)^(-2 ell) with
    f(t) = (1 - lambda) t + lambda t^2 the offspring generating function;
    lambda (1 - lambda) I(k, 1) equals A(k, lambda). Only the open interval
    lambda in (0, 1) is accepted: at the endpoints the representation
    degenerates and A() already gives the exact value.
    """
    _check_k(k)
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if not 0.0 < lam < 1.0:
        raise ValueError("integral representation needs lambda strictly inside (0, 1)")

    def integrand(t: float) -> float:
        ft = (1.0 - lam) * t + lam * t * t
        fpt = (1.0 - lam) + 2.0 * lam * t
        return ft**k / fpt ** (2 * ell)

    return _adaptive_simpson(integrand, 0.0, 1.0, _QUAD_TOL, _QUAD_BUDGET)


@dataclass(frozen=True)
class HarmonicMomentBounds:
    """Interval for E[1/(S_n + y)] over the population size after n cycles."""

    lower: float
    upper: float
    alt_upper: float | None = None  # running-minimum alternative, S0 = 1 and y = 0 only


def harmonic_moment_bounds(
    sched: EfficiencySchedule, S0: int, n: int, y: float
) -> HarmonicMomentBounds:
    """Certified interval for E[1/(S_n + y)] under a deterministic schedule.

    For y >= 0 the interval is [gamma_n/(S0+y), gamma^(y+2)_n/(S0+y)]. For
    negative integer shifts with S0 + y >= 1 the upper bound is
    gamma_n/(S0+y) and the lower bound comes from Jensen's inequality. When
    S0 = 1 and y = 0 an alternative upper bound gamma_n (1 + 1/lambda_n^*) is
    also computed and the reported upper bound is the smaller of the two.
    """
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    if not S0 + y > 0:
        raise ValueError(f"S0 + y = {S0 + y} must be positive")
    seqs = derived_sequences(sched, n)
    gamma_n = float(seqs.gamma[n])

    if y >= 0.0:
        lower = gamma_n / (S0 + y)
        upper = float(gamma_sequence(seqs.lam, y + 2.0)[n]) / (S0 + y)
        alt = None
        # the running-minimum route degenerates when some cycle never
        # duplicates (lambda* = 0 makes it vacuous)
        if S0 == 1 and y == 0.0 and float(seqs.lambda_star[n]) > 0.0:
            alt = gamma_n * (1.0 + 1.0 / float(seqs.lambda_star[n]))
            upper = min(upper, alt)
        return HarmonicMomentBounds(lower=lower, upper=upper, alt_upper=alt)

    if y != int(y):
        raise ValueError("negative shifts must be integers")
    if S0 + y < 1:
        raise ValueError(f"negative shift y={y} needs S0 + y >= 1, got S0={S0}")
    # 1/(x + y) is convex in x on x + y > 0, so Jensen gives the lower bound
    # at the mean size S0/gamma_n.
    lower = gamma_n / (S0 + y * gamma_n)
    upper = gamma_n / (S0 + y)
    return HarmonicMomentBounds(lower=lower, upper=upper)


def _bpp_via_shift(k: int, lam: float) -> float:
    """Alternative form of Bpp for k >= 2: lam(1-lam) E[k/(3 + M_{k-2})^2]."""
    if k == 2:
        return lam * (1.0 - lam) * k / 9.0
    j, w = _binom_weights(k - 2, lam)
    return lam * (1.0 - lam) * float(np.sum(w * k / (3.0 + k - 2 + j) ** 2))


def inequality_violations(
    k_max: int = 60,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    y_values: tuple[float, ...] = DEFAULT_Y_GRID,
    slack: float = 1e-12,
    tail_k: int = 500,
) -> list[str]:
    """Run the whole inequality suite on a grid; return violation labels.

    Covers the per-cycle coefficient bounds, the monotonicity statements, the
    polynomial sandwiches, the pairwise identities, and the slow-convergence
    spot check of k A(k) at k = tail_k (within 15 percent of its limit).
    An empty list means every assertion held within ``slack``.
    """
    bad: list[str] = []

    def check(ok: bool, label: str) -> None:
        if not ok:
            bad.append(label)

    for lam in lambdas:
        n2 = lam * (1.0 - lam)
        alpha = lam / (1.0 + lam)
        inv = 1.0 / (1.0 + lam)
        fams = {k: B_family(k, lam) for k in range(1, k_max + 2)}
        hy_tables = {
            y: {k: H_y(k, lam, y) for k in range(max(1, int(math.floor(-y)) + 1), k_max + 2)}
            for y in y_values
        }

        for k in range(1, k_max + 1):
            fam = fams[k]
            tag = f"(k={k}, lam={lam})"

            check(1.0 - alpha - slack <= fam.H <= 1.0 + slack, f"H range {tag}")
            check(fam.A >= -slack, f"A nonnegative {tag}")

            check(fam.B <= alpha * (1.0 - alpha) / k + slack, f"B coefficient bound {tag}")
            check(fam.Bp <= lam / (k + 1) + slack, f"B' coefficient bound {tag}")
            check(fam.Bpp <= n2 / (k + 2) + slack, f"B'' coefficient bound {tag}")

            check(fam.G <= inv**2 + 3.0 * fam.A + slack, f"G vs A bound {tag}")
            for p in range(1, 6):
                check(
                    power_moment(k, lam, p) <= inv**p + fam.A * p * (p + 1) / 2.0 + slack,
                    f"power moment bound p={p} {tag}",
                )
            check(fam.Bp <= fam.A * (1.0 + 3.0 * lam) * inv + slack, f"B' vs A upper {tag}")

            check(fam.B >= fam.A / 2.0 - slack, f"B vs A lower {tag}")
            check(fam.Bp >= (1.0 - lam) * fam.A / 2.0 - slack, f"B' vs A lower {tag}")

            seq_here = (k + 1) * fam.A
            seq_next = (k + 2) * fams[k + 1].A
            check(seq_next <= seq_here + slack, f"(k+1)A nonincreasing {tag}")
            check(
                alpha * (1.0 - lam) * inv**2 - slack <= seq_here <= alpha * (1.0 - lam) + slack,
                f"(k+1)A range {tag}",
            )

            scale = n2 * inv**3
            check(scale / (k + 1) - slack <= fam.A <= scale * (k + 1) / k**2 + slack,
                  f"A asymptotic range {tag}")
            if k >= 2:
                check(fam.A <= scale / (k - 1) + slack, f"A asymptotic range k>=2 {tag}")

            h_up, g_low = taylor_sandwich(k, lam)
            check(fam.H <= h_up + slack, f"H Taylor upper {tag}")
            check(fam.G >= g_low - slack, f"G Taylor lower {tag}")

            if k >= 2:
                check(abs(fam.Bpp + fam.B1 - 1.0) <= slack, f"B''+B1 identity {tag}")
                check(abs(fam.Bpp - _bpp_via_shift(k, lam)) <= slack,
                      f"B'' shift identity {tag}")
                # the pair functional is degenerate for a single particle
                # (convention B''(1) = 0), so the lower bound starts at k = 2
                check(fam.Bpp >= n2 * inv**2 * k / (k + 1) ** 2 - slack,
                      f"B'' lower bound {tag}")
            check(abs(fam.B2 - (1.0 - fam.H) ** 2 - fam.Bp) <= slack,
                  f"B2 decomposition {tag}")

            for y in y_values:
                if not k + y > 0:
                    continue
                cf = C_family(k, lam, y)
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
                table = hy_tables[y]
                if k not in table or (k + 1) not in table:
                    continue
                ytag = f"(k={k}, lam={lam}, y={y})"
                if y >= 0:
                    check(table[k + 1] <= table[k] + slack, f"H_y nonincreasing {ytag}")
                    check(table[k] >= inv - slack, f"H_y floor {ytag}")
                elif y == -1.0 and k >= 2:
                    check(table[k + 1] >= table[k] - slack, f"H_-1 nondecreasing {ytag}")
                    check(table[k] <= inv + slack, f"H_-1 ceiling {ytag}")

        tail = tail_k * A(tail_k, lam)
        limit = n2 * inv**3
        check(abs(tail - limit) <= 0.15 * limit + slack, f"kA(k) tail (lam={lam})")

    return bad
