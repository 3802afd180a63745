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
(an adaptive Gauss-Kronrod G7/K15 quadrature of f^k f'^(-2l) for the
offspring generating function f) and interval bounds for harmonic moments of
the population size after n cycles.
"""

from __future__ import annotations

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


# Gauss-Kronrod G7/K15 rule on [-1, 1] (Piessens et al., QUADPACK, 1983,
# qk15): the positive Kronrod abscissae, outermost first, then the centre;
# the Gauss nodes are the 2nd, 4th and 6th of them and the centre
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# all 15 nodes in ascending order, with the K15 and the (zero-padded) G7 weights
_GK_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_GK_K15 = np.array(_WGK[:-1] + _WGK[::-1])
_GK_G7 = np.zeros(15)
_GK_G7[1::2] = _WG[:-1] + _WG[::-1]


def _gauss_kronrod(g, a: float, b: float, tol: float, budget: int) -> tuple[float, float]:
    """Adaptive G7/K15 quadrature to absolute tolerance; (integral, error bound).

    ``g`` takes an array of abscissae. Each pass evaluates it once over every
    open interval; an interval is accepted when |K15 - G7| is within its share
    of ``tol`` (halved on each split) and is split in two otherwise. The
    returned error is the sum of |K15 - G7| over the accepted intervals.
    """
    lo, hi, share = np.array([a]), np.array([b]), np.array([tol])
    total = err = 0.0
    evals = 0
    while lo.size:
        evals += 15 * lo.size
        if evals > budget:
            raise RuntimeError(f"quadrature exceeded {budget} evaluations")
        half = 0.5 * (hi - lo)
        f = g((lo + half)[:, None] + half[:, None] * _GK_NODES)
        k15 = half * (f @ _GK_K15)
        diff = np.abs(k15 - half * (f @ _GK_G7))
        done = diff <= share
        total += float(np.sum(k15[done]))
        err += float(np.sum(diff[done]))
        lo, hi, share = lo[~done], hi[~done], share[~done]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        share = np.tile(0.5 * share, 2)
    return total, err


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

    def integrand(t: np.ndarray) -> np.ndarray:
        ft = (1.0 - lam) * t + lam * t * t
        fpt = (1.0 - lam) + 2.0 * lam * t
        return ft**k / fpt ** (2 * ell)

    return _gauss_kronrod(integrand, 0.0, 1.0, _QUAD_TOL, _QUAD_BUDGET)[0]


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

    Each efficiency builds the rows Binomial(s, lambda), s = 0..k_max+1, once,
    as one zero-padded matrix; every functional is a row reduction of it and
    every inequality one boolean array over k. Labels come in the order of a
    loop over k, then over the checks.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    bad: list[str] = []
    size = k_max + 2
    j = np.arange(size, dtype=float)
    kcol = j[1:, None]             # rows k = 1..k_max+1
    m = kcol + j                   # M_k at every duplication count j
    r = kcol / m
    ks = j[1:]                     # k = 1..k_max+1, for per-k arithmetic
    kc = ks[:k_max]                # k = 1..k_max, the cells checked
    ge2 = kc >= 2
    km1 = np.maximum(kcol - 1.0, 1.0)
    ell1ell2 = 1.0 + 2.0 * j / kcol + j * (j - 1.0) / (kcol * km1)
    k2col = j[2:, None]            # k = 2..k_max+1, read from row k - 2
    shift_den = (k2col + 1.0 + j) ** 2

    for lam in lambdas:
        n2 = lam * (1.0 - lam)
        alpha = lam / (1.0 + lam)
        inv = 1.0 / (1.0 + lam)
        w = np.zeros((size, size))
        for s in range(size):
            w[s, : s + 1] = binom_row(s, lam)
        wk = w[1:]

        def mean(x: np.ndarray) -> np.ndarray:
            return np.sum(wk * x, axis=1)

        H, G = mean(r), mean(r * r)
        A_ = H - inv
        B = mean(j / m**2)
        Bp = G - H * H
        B2 = mean((j / m) ** 2)
        Bpp = np.where(ks == 1, 0.0, mean(j * (kcol - j) / (km1 * m**2)))
        B1 = np.where(ks == 1, 1.0, mean(kcol**2 * ell1ell2 / m**2))
        bpp_shift = n2 * np.sum(w[:-2] * k2col / shift_den, axis=1)   # k = 2..k_max+1
        seq = (ks + 1.0) * A_
        scale = n2 * inv**3
        taylor = np.array([taylor_sandwich(k, lam) for k in range(1, k_max + 1)])

        H, G, A_, B, Bp, B2, Bpp, B1 = (x[:k_max] for x in (H, G, A_, B, Bp, B2, Bpp, B1))
        checks: list[tuple[str, float | None, np.ndarray]] = [
            ("H range", None, (1.0 - alpha - slack <= H) & (H <= 1.0 + slack)),
            ("A nonnegative", None, A_ >= -slack),
            ("B coefficient bound", None, B <= alpha * (1.0 - alpha) / kc + slack),
            ("B' coefficient bound", None, Bp <= lam / (kc + 1) + slack),
            ("B'' coefficient bound", None, Bpp <= n2 / (kc + 2) + slack),
            ("G vs A bound", None, G <= inv**2 + 3.0 * A_ + slack),
        ]
        for p in range(1, 6):
            moment = mean(r**p)[:k_max]
            checks.append((f"power moment bound p={p}", None,
                           moment <= inv**p + A_ * p * (p + 1) / 2.0 + slack))
        checks += [
            ("B' vs A upper", None, Bp <= A_ * (1.0 + 3.0 * lam) * inv + slack),
            ("B vs A lower", None, B >= A_ / 2.0 - slack),
            ("B' vs A lower", None, Bp >= (1.0 - lam) * A_ / 2.0 - slack),
            ("(k+1)A nonincreasing", None, seq[1:] <= seq[:-1] + slack),
            ("(k+1)A range", None, (alpha * (1.0 - lam) * inv**2 - slack <= seq[:-1])
             & (seq[:-1] <= alpha * (1.0 - lam) + slack)),
            ("A asymptotic range", None, (scale / (kc + 1) - slack <= A_)
             & (A_ <= scale * (kc + 1) / kc**2 + slack)),
            ("A asymptotic range k>=2", None,
             ~ge2 | (A_ <= scale / np.maximum(kc - 1, 1) + slack)),
            ("H Taylor upper", None, H <= taylor[:, 0] + slack),
            ("G Taylor lower", None, G >= taylor[:, 1] - slack),
            ("B''+B1 identity", None, ~ge2 | (np.abs(Bpp + B1 - 1.0) <= slack)),
            ("B'' shift identity", None,
             ~ge2 | (np.abs(Bpp - np.append(0.0, bpp_shift[: k_max - 1])) <= slack)),
            # the pair functional is degenerate for a single particle
            # (convention B''(1) = 0), so the lower bound starts at k = 2
            ("B'' lower bound", None, ~ge2 | (Bpp >= n2 * inv**2 * kc / (kc + 1) ** 2 - slack)),
            ("B2 decomposition", None, np.abs(B2 - (1.0 - H) ** 2 - Bp) <= slack),
        ]

        hy_checks = []
        for y in y_values:
            valid = ks + y > 0
            den = np.where(valid[:, None], m + y, 1.0)
            Hy = mean((kcol + y) / den)
            den *= m**2
            Cp = mean((m - 1.0) * j / den)[:k_max]
            Cpp = mean(kcol * j / den)[:k_max]
            C = np.where(ks == 1, 0.0, mean(kcol**2 * (kcol + y) * ell1ell2 / den))[:k_max]
            on = valid[:k_max]
            ky = kc + y
            checks += [
                ("C'' vs C'", y, ~on | (Cpp <= Cp + slack)),
                ("C' vs 1-H", y, ~on | (ky * Cp <= 1.0 - H + slack)),
                ("C vs H_y", y, ~on | (C <= Hy[:k_max] + slack)),
                ("C' contraction", y, ~on | (ky * Cp <= alpha + slack)),
            ]
            if y >= 0:
                checks.append(("C contraction", y, ~on | (C <= 1.0 - lam / (y + 2.0) + slack)))
                hy_checks += [
                    ("H_y nonincreasing", y, ~on | (Hy[1:] <= Hy[:-1] + slack)),
                    ("H_y floor", y, ~on | (Hy[:-1] >= inv - slack)),
                ]
            elif y == -1.0:
                on = on & ge2
                checks.append(("C contraction shift -1", y, ~on | (C <= 1.0 - alpha + slack)))
                hy_checks += [
                    ("H_-1 nondecreasing", y, ~on | (Hy[1:] >= Hy[:-1] - slack)),
                    ("H_-1 ceiling", y, ~on | (Hy[:-1] <= inv + slack)),
                ]
        checks += hy_checks

        failed = ~np.stack([ok for _, _, ok in checks], axis=1)   # (k, check)
        for k0, c in np.argwhere(failed):
            name, y, _ = checks[c]
            yt = "" if y is None else f", y={y}"
            bad.append(f"{name} (k={k0 + 1}, lam={lam}{yt})")

        tail = tail_k * A(tail_k, lam)
        if not abs(tail - scale) <= 0.15 * scale + slack:
            bad.append(f"kA(k) tail (lam={lam})")

    return bad
