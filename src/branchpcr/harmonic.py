"""Harmonic moments of Bernoulli duplication rounds, evaluated exactly.

One duplication round turns k particles into M_k = k + Binomial(k, lambda)
particles. Everything here is an expectation of a rational function of M_k,
computed by summing over the duplication count, so the monotonicity and
sandwich properties used by the moment envelopes can be tested without
sampling noise. Pairwise functionals (those involving two tagged particles)
are reduced to the duplication count via exchangeability: given j duplications
among k particles, two tagged ones both duplicated with probability
j(j-1)/(k(k-1)) and exactly one did with probability 2j(k-j)/(k(k-1)).

Each functional is written once, as a row sum (_h_rows, _power_rows, _b_rows,
_c_rows with H_y, _bpp_shift_rows): the scalar functions, the families, the
CLI table, the inequality suite and moments.exact_Vn_Vpn's A(s, lambda) reduce it.

Also provides the integral representation of the centered harmonic mean A(k)
(an adaptive Gauss-Kronrod G7/K15 quadrature of f^k f'^(-2l) for the
offspring generating function f) and interval bounds for harmonic moments of
the population size after n cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._pmf import binom_band, binom_row
from .schedule import EfficiencySchedule, derived_sequences, gamma_sequence

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(
    round(0.05 * i, 2) for i in range(1, 20)
) + (1.0,)

DEFAULT_Y_GRID: tuple[float, ...] = (-1.0, 0.0, 0.5, 1.0, 5.0)

_QUAD_TOL = 1e-12
_QUAD_BUDGET = 10**6
_TAIL_K = 500   # the k of the inequality suite's k A(k) tail check


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("particle count k must be at least 1")


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"duplication probability {lam} outside [0, 1]")


def _check_shift(k: int, y: float) -> None:
    if not math.isfinite(y):
        raise ValueError(f"shift y must be finite, got {y}")
    if not k + y > 0:
        raise ValueError(f"k + y = {k + y} must be positive")


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
    """Shifted harmonic mean E[(k + y)/(M_k + y)], C_family's Hy. Requires finite y, k + y > 0."""
    return C_family(k, lam, y).Hy


def H(k: int, lam: float) -> float:
    """Harmonic mean E[k/M_k]."""
    _check_k(k)
    _check_lambda(lam)
    return float(_h_rows(k, *_binom_weights(k, lam)))


def A(k: int, lam: float) -> float:
    """Centered harmonic mean H(k) - 1/(1 + lambda), the per-cycle correction."""
    return _centred(H(k, lam), lam)


def G(k: int, lam: float) -> float:
    """Second harmonic moment E[(k/M_k)^2]."""
    return power_moment(k, lam, 2)


def power_moment(k: int, lam: float, power: int) -> float:
    """E[(k/M_k)^power] for integer power >= 1."""
    _check_k(k)
    _check_lambda(lam)
    if power < 1:
        raise ValueError("power must be at least 1")
    return float(_power_rows(k, *_binom_weights(k, lam), power))


def _h_rows(k, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E[k/M_k] of each row of weights w over the duplication counts j."""
    return np.sum(w * k / (k + j), axis=-1)


def _power_rows(k, j: np.ndarray, w: np.ndarray, power: int) -> np.ndarray:
    """E[(k/M_k)^power] of each row of weights w over the duplication counts j."""
    return np.sum(w * (k / (k + j)) ** power, axis=-1)


def _centred(h, lam: float):
    """A = H - 1/(1 + lambda), the harmonic mean less its infinite-population limit."""
    return h - 1.0 / (1.0 + lam)


def _pair_cells(k: np.ndarray, j: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """w k^2 E[L_1 L_2 | j] / M_k^2 at each cell: the terms of B1, and of C unshifted."""
    km1 = np.maximum(k - 1, 1)   # the k = 1 rows take their convention instead
    return w * k**2 * (1.0 + 2.0 * j / k + j * (j - 1) / (k * km1)) / m**2


def _b_rows(k: np.ndarray, j: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """H, G, B, B', B'', B1 and B2 of each row, each a sum over the last axis.

    ``k`` is a (K, 1) column of sizes, ``j`` the duplication counts and ``w``
    their Binomial(k, lambda) weights, zero past each row's k. The k = 1 rows
    take the conventions B'' = 0 and B1 = 1.
    """
    m = (k + j).astype(float)
    one = (k == 1)[..., 0]
    h = _h_rows(k, j, w)
    g = _power_rows(k, j, w, 2)
    b = np.sum(w * j / m**2, axis=-1)
    b2 = np.sum(w * (j / m) ** 2, axis=-1)
    bpp = np.sum(w * j * (k - j) / (np.maximum(k - 1, 1) * m**2), axis=-1)
    b1 = np.sum(_pair_cells(k, j, w, m), axis=-1)
    return h, g, b, g - h * h, np.where(one, 0.0, bpp), np.where(one, 1.0, b1), b2


def _c_rows(k: np.ndarray, j: np.ndarray, w: np.ndarray, y) -> tuple[np.ndarray, ...]:
    """C, C', C'' and H_y of each row at shift y, each a sum over the last axis.

    ``k``, ``j`` and ``w`` are as for _b_rows, and ``y`` a shift or a (Y, 1, 1)
    array of them, for (Y, K) sums; the k = 1 rows take C = 0.
    (k + y)/(M_k + y) is formed as one ratio and 1/(M_k + y) divided in last,
    so a shift near the largest float gives the finite limit (C -> B1, H_y -> 1,
    C' and C'' -> 0) instead of inf/inf. Rows with k + y <= 0 divide by 1, so
    they stay finite; their values mean nothing.
    """
    m = (k + j).astype(float)
    den = np.where(k + y > 0, m + y, 1.0)
    ratio = (k + y) / den
    cp = np.sum(w * (m - 1.0) * j / m**2 / den, axis=-1)
    cpp = np.sum(w * k * j / m**2 / den, axis=-1)
    c = np.sum(_pair_cells(k, j, w, m) * ratio, axis=-1)
    hy = np.sum(w * ratio, axis=-1)
    return np.where((k == 1)[..., 0], 0.0, c), cp, cpp, hy


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
    return _b_family(k, lam, *_binom_weights(k, lam))


def _b_family(k: int, lam: float, j: np.ndarray, w: np.ndarray) -> HarmonicFamily:
    """B_family from the duplication counts j = 0..k and their weights w."""
    h, g, *rest = (x.item() for x in _b_rows(np.array([[k]]), j, w))   # B, B', ..., B2
    return HarmonicFamily(k, lam, h, g, _centred(h, lam), *rest)


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
    """The C coefficients at (k, lambda, y). Requires finite y and k + y > 0."""
    _check_k(k)
    _check_lambda(lam)
    _check_shift(k, y)
    return _c_family(k, lam, y, *_binom_weights(k, lam))


def _c_family(k: int, lam: float, y: float, j: np.ndarray, w: np.ndarray) -> CFamily:
    """C_family from the duplication counts j = 0..k and their weights w."""
    return CFamily(k, lam, y, *(x.item() for x in _c_rows(np.array([[k]]), j, w, y)))


def family_table(
    k_max: int, lambdas: Sequence[float], y: float | None = None
) -> list[tuple[HarmonicFamily, CFamily | None]]:
    """B_family, and C_family at shift y, for each lambda and k = 1..k_max.

    Rows come lambda by lambda, k ascending; the C entry is None without y.
    Each lambda takes its rows Binomial(k, lambda), k = 1..k_max, from one
    call of the band kernel, which works cell by cell, so each row is the
    one ``binom_row(k, lambda)`` gives; both families reduce its first k + 1
    cells as B_family and C_family do, so the values are theirs to the bit.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    for lam in lambdas:
        _check_lambda(lam)
    if k_max == 0:
        return []
    if y is not None:
        _check_shift(1, y)   # then k + y > 0 at every k
    table = []
    for lam in lambdas:
        rows = binom_band(np.arange(1, k_max + 1), lam, tail=0.0)[1]
        for k in range(1, k_max + 1):
            j, w = np.arange(k + 1), rows[k - 1, : k + 1]
            cf = None if y is None else _c_family(k, lam, y, j, w)
            table.append((_b_family(k, lam, j, w), cf))
    return table


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
# equal pieces of the first quadrature pass
_GK_PIECES = 16
_EPS = float(np.finfo(float).eps)


def _gauss_kronrod(g, a: float, b: float, tol: float, budget: int) -> tuple[float, float]:
    """Adaptive G7/K15 quadrature to absolute tolerance; (integral, error bound).

    ``g`` takes an array of abscissae. The first pass covers [a, b] in
    _GK_PIECES equal pieces, each with an equal share of ``tol``; each pass
    evaluates g once over every open interval, accepts an interval when
    |K15 - G7| is within its share and splits it in two, halving the share,
    otherwise. The returned error is the sum of |K15 - G7| over the accepted
    intervals plus a bound on the rounding of their rule sums and of the
    final sum, after QUADPACK's qk15 (Piessens et al., 1983).
    """
    edges = np.linspace(a, b, _GK_PIECES + 1)
    lo, hi = edges[:-1], edges[1:]
    share = np.full(_GK_PIECES, tol / _GK_PIECES)
    total = err = size = 0.0
    accepted = evals = 0
    while True:
        evals += 15 * lo.size
        if evals > budget:
            raise RuntimeError(f"quadrature exceeded {budget} evaluations")
        half = 0.5 * (hi - lo)
        f = g((lo + half)[:, None] + half[:, None] * _GK_NODES)
        k15 = half * (f @ _GK_K15)
        diff = np.abs(k15 - half * (f @ _GK_G7))
        done = diff <= share
        total += k15[done].sum()
        err += diff[done].sum()
        size += (np.abs(half) * (np.abs(f) @ _GK_K15))[done].sum()
        accepted += int(done.sum())
        if done.all():
            break
        lo, hi, share = lo[~done], hi[~done], 0.5 * share[~done]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        share = np.concatenate((share, share))
    # with u = eps/2, a rule sum (a 15-term dot product times the rounded
    # half-width) is off by at most 17 u of its sum of |terms|, and summing
    # the accepted intervals adds at most (accepted - 1) u of their total;
    # eps in place of u leaves room for the second-order terms
    return float(total), float(err + (16 + accepted) * _EPS * size)


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


def _bpp_shift_rows(k, j: np.ndarray, w: np.ndarray, lam: float) -> np.ndarray:
    """B'' = lam(1-lam) E[k/(3 + M_{k-2})^2] at k >= 2, of Binomial(k - 2, lam) rows w."""
    return lam * (1.0 - lam) * np.sum(w * k / (k + 1.0 + j) ** 2, axis=-1)


def _bpp_via_shift(k: int, lam: float) -> float:
    """Alternative form of Bpp for k >= 2: lam(1-lam) E[k/(3 + M_{k-2})^2]."""
    return float(_bpp_shift_rows(k, *_binom_weights(k - 2, lam), lam))


def inequality_violations(
    k_max: int = 60,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
    y_values: tuple[float, ...] = DEFAULT_Y_GRID,
    slack: float = 1e-12,
) -> list[str]:
    """Run the whole inequality suite on a grid; return violation labels.

    Covers the per-cycle coefficient bounds, the monotonicity statements, the
    polynomial sandwiches, the pairwise identities, and the slow-convergence
    spot check of k A(k) at k = _TAIL_K = 500 (within 15 percent of its limit).
    An empty list means every assertion held within ``slack``.

    Each efficiency builds the rows Binomial(s, lambda), s = 0..k_max+1, as
    one zero-padded matrix in one call of the band kernel; the coefficients
    are the row reductions B_family and C_family run (_b_rows, _c_rows) and
    _bpp_shift_rows, and every inequality is one boolean array over k.
    Labels come in the order of a loop over k, then over the checks.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    bad: list[str] = []
    size = k_max + 2
    j = np.arange(size, dtype=float)
    kcol = j[1:, None]             # rows k = 1..k_max+1
    ks = j[1:]                     # k = 1..k_max+1, for per-k arithmetic
    kc = ks[:k_max]                # k = 1..k_max, the cells checked
    ge2 = kc >= 2
    k2col = j[2:, None]            # k = 2..k_max+1, read from row k - 2

    for lam in lambdas:
        n2 = lam * (1.0 - lam)
        alpha = lam / (1.0 + lam)
        inv = 1.0 / (1.0 + lam)
        w = binom_band(np.arange(size), lam, tail=0.0)[1]
        wk = w[1:]
        H, G, B, Bp, Bpp, B1, B2 = _b_rows(kcol, j, wk)
        A_ = _centred(H, lam)
        bpp_shift = _bpp_shift_rows(k2col, j, w[:-2], lam)   # k = 2..k_max+1
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
            moment = _power_rows(kcol, j, wk, p)[:k_max]
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
        c_rows = _c_rows(kcol, j, wk, np.reshape(y_values, (-1, 1, 1)))   # all shifts at once
        for y, C, Cp, Cpp, Hy in zip(y_values, *c_rows):
            C, Cp, Cpp = C[:k_max], Cp[:k_max], Cpp[:k_max]
            ky = kc + y
            on = ky > 0
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

        tail = _TAIL_K * A(_TAIL_K, lam)
        if not abs(tail - scale) <= 0.15 * scale + slack:
            bad.append(f"kA(k) tail (lam={lam})")

    return bad
