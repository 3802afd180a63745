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
CLI table and the inequality suite reduce it.
The sums run over the last axis, so the same code reduces one row, a (k, j)
matrix or the inequality suite's (lambda, k, j) blocks, to the same bits; the
Taylor sandwich is likewise one array form (_taylor_rows) for the scalar
taylor_sandwich and the suite.

Also provides the integral representation of the centered harmonic mean A(k)
(one panel of the ``_gf`` quadrature kernel over f^k f'^(-2l) for the
offspring generating function f) and interval bounds for harmonic moments
of the population size after n cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._gf import _gauss_kronrod
from ._pmf import _BLOCK_CELLS, binom_row, binom_rows
from .schedule import EfficiencySchedule, derived_sequences, gamma_sequence

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(
    round(0.05 * i, 2) for i in range(1, 20)
) + (1.0,)

DEFAULT_Y_GRID: tuple[float, ...] = (-1.0, 0.0, 0.5, 1.0, 5.0)

_QUAD_TOL = 1e-12
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


def _h_rows(k, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E[k/M_k] of each row of weights w over the duplication counts j."""
    return np.sum(w * k / (k + j), axis=-1)


def _power_rows(k, j: np.ndarray, w: np.ndarray, *powers: int) -> list[np.ndarray]:
    """E[(k/M_k)^p] of each row of weights w over the duplication counts j, per power p."""
    ratio = k / (k + j)
    return [np.sum(w * ratio**p, axis=-1) for p in powers]


def _centred(h, lam: float):
    """A = H - 1/(1 + lambda), the harmonic mean less its infinite-population limit."""
    return h - 1.0 / (1.0 + lam)


def _pair_cells(k: np.ndarray, j: np.ndarray, w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """w k^2 E[L_1 L_2 | j] / M_k^2 at each cell: the terms of B1, and of C unshifted."""
    km1 = np.maximum(k - 1, 1)   # the k = 1 rows take their convention instead
    return w * k**2 * (1.0 + 2.0 * j / k + j * (j - 1) / (k * km1)) / m**2


def _b_rows(k: np.ndarray, j: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """H, G, B, B', B'', B1 and B2 of each row, each a sum over the last axis.

    ``k`` is a (K, 1) column of sizes, or (1, K, 1) for (lambda, K, j)
    weights, ``j`` the duplication counts and ``w`` their Binomial(k, lambda)
    weights, zero past each row's k. The k = 1 rows take the conventions
    B'' = 0 and B1 = 1.
    """
    m = (k + j).astype(float)
    one = (k == 1)[..., 0]
    h = _h_rows(k, j, w)
    g, = _power_rows(k, j, w, 2)
    b = np.sum(w * j / m**2, axis=-1)
    b2 = np.sum(w * (j / m) ** 2, axis=-1)
    bpp = np.sum(w * j * (k - j) / (np.maximum(k - 1, 1) * m**2), axis=-1)
    b1 = np.sum(_pair_cells(k, j, w, m), axis=-1)
    return h, g, b, g - h * h, np.where(one, 0.0, bpp), np.where(one, 1.0, b1), b2


def _c_rows(k: np.ndarray, j: np.ndarray, w: np.ndarray, y) -> tuple[np.ndarray, ...]:
    """C, C', C'' and H_y of each row at shift y, each a sum over the last axis.

    ``k``, ``j`` and ``w`` are as for _b_rows, and ``y`` a shift or an array
    of them on a new leading axis ((Y, 1, 1) for (Y, K) sums, (Y, 1, 1, 1)
    for (Y, lambda, K)); the k = 1 rows take C = 0.
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
    ``binom_rows`` call, which works cell by cell, so each row is the one
    ``binom_row(k, lambda)`` gives; both families reduce its first k + 1
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
        rows = binom_rows(np.arange(1, k_max + 1), lam)
        for k in range(1, k_max + 1):
            j, w = np.arange(k + 1), rows[k - 1, : k + 1]
            cf = None if y is None else _c_family(k, lam, y, j, w)
            table.append((_b_family(k, lam, j, w), cf))
    return table


def taylor_sandwich(k: int, lam: float) -> tuple[float, float]:
    """Polynomial envelope (H_upper, G_lower) around the harmonic moments.

    Third-order expansions of 1/x and 1/x^2 at the mean growth factor; the
    exact H(k) never exceeds H_upper and the exact G(k) never falls below
    G_lower. The values are _taylor_rows' at one cell, so the inequality
    suite, which takes them over its whole grid, tests these same numbers.
    """
    _check_k(k)
    _check_lambda(lam)
    h, g = _taylor_rows(np.array([float(k)]), np.array([lam]))
    return h.item(), g.item()


def _taylor_rows(k: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """taylor_sandwich's (H_upper, G_lower) at each k and lambda, broadcast."""
    n2 = lam * (1.0 - lam)
    g1 = n2 / (1.0 + lam) ** 2
    g2 = n2 * (1.0 - 2.0 * lam) / (1.0 + lam) ** 3
    g3 = n2 * (1.0 + 3.0 * (k - 2) * n2) / (1.0 + lam) ** 3
    k2 = k * k
    k3 = k2 * k
    h_tilde = 1.0 + g1 / k - g2 / k2 + g3 / k3
    g_tilde = 1.0 + 3.0 * g1 / k - 4.0 * g2 / k2 + 2.0 * g3 / k3
    return h_tilde / (1.0 + lam), g_tilde / (1.0 + lam) ** 2


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

    return _gauss_kronrod(integrand, 0.0, 1.0, _QUAD_TOL, bound=False)[0]


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


def _bpp_shift_rows(k, j: np.ndarray, w: np.ndarray, lam) -> np.ndarray:
    """B'' = lam(1-lam) E[k/(3 + M_{k-2})^2] at k >= 2, of Binomial(k - 2, lam) rows w.

    ``lam`` is one efficiency, or a (lambda, 1) column for (lambda, k, j) rows.
    """
    return lam * (1.0 - lam) * np.sum(w * k / (k + 1.0 + j) ** 2, axis=-1)


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

    The efficiencies are an array axis. Each block of them takes the rows
    Binomial(s, lambda), s = 0..k_max+1, as one zero-padded (lambda, s, j)
    array from one call of the band kernel, and its Binomial(_TAIL_K, lambda)
    rows from one more; the coefficients are the row reductions B_family and
    C_family run (_b_rows, _c_rows), _power_rows and _bpp_shift_rows over the
    last axis, the Taylor sandwich is _taylor_rows, which taylor_sandwich
    also calls, and every inequality is one boolean (lambda, k) array. A
    block holds as many efficiencies as keep its bands within the size
    programs' _BLOCK_CELLS weights, at least one: the default grid is one
    block, and k_max = 1000 takes one efficiency at a time. The band kernel
    works cell by cell, so the values do not depend on the blocking.
    Labels come lambda by lambda in grid order, then by k, then in the order
    of the checks; each lambda's k A(k) tail label comes after its others.
    """
    return _inequality_suite(k_max, lambdas, y_values, slack)[0]


def _inequality_suite(
    k_max: int = 60,
    lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID,
    y_values: Sequence[float] = DEFAULT_Y_GRID,
    slack: float = 1e-12,
) -> tuple[list[str], int]:
    """inequality_violations' labels, and the number of assertions it evaluated.

    An assertion is one check at one (lambda, k), or one lambda's tail check;
    checks that start at k = 2 or need k + y > 0 are not counted where they
    do not apply.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    size = k_max + 2
    step = max(1, _BLOCK_CELLS // (size * size + _TAIL_K + 1))   # efficiencies per block
    bad: list[str] = []
    checked = 0
    s = np.arange(size, dtype=float)
    for at in range(0, len(lambdas), step):
        block = lambdas[at : at + step]
        # w stays alive until the next block's bands replace it, so the
        # allocator keeps its pages; built and freed inside each block, they
        # went back to the system and were faulted in again (about 10% slower
        # at k_max = 1000)
        w = binom_rows(np.tile(s, len(block)), np.repeat(block, size))
        labels, count = _suite_block(k_max, block, w.reshape(len(block), size, size),
                                     y_values, slack)
        bad += labels
        checked += count
    return bad, checked


def _suite_block(
    k_max: int, block: Sequence[float], w: np.ndarray, y_values: Sequence[float], slack: float
) -> tuple[list[str], int]:
    """The suite on one block of efficiencies: (labels, assertions evaluated).

    ``w`` holds the block's Binomial(s, lambda) rows, s = 0..k_max+1, as a
    zero-padded (lambda, s, j) array.
    """
    size = k_max + 2
    j = np.arange(size, dtype=float)
    # the k columns are (1, k, 1), so the (k, j) terms the row functions
    # form have w's three axes: numpy then reuses their temporaries in place
    # (it elides a temporary only against an operand of the result's shape)
    kcol = j[None, 1:, None]       # rows k = 1..k_max+1
    ks = j[1:]                     # k = 1..k_max+1, for per-k arithmetic
    kc = ks[:k_max]                # k = 1..k_max, the cells checked
    ge2 = kc >= 2
    k2col = j[None, 2:, None]      # k = 2..k_max+1, read from row k - 2
    nl = len(block)
    lam = np.array(block, dtype=float)[:, None]    # (lambda, 1)
    n2 = lam * (1.0 - lam)
    alpha = lam / (1.0 + lam)
    inv = 1.0 / (1.0 + lam)
    scale = n2 * inv**3

    wk = w[:, 1:]
    H, G, B, Bp, Bpp, B1, B2 = _b_rows(kcol, j, wk)
    A_ = _centred(H, lam)
    bpp_shift = _bpp_shift_rows(k2col, j, w[:, :-2], lam)   # k = 2..k_max+1
    seq = (ks + 1.0) * A_
    h_up, g_low = _taylor_rows(kc, lam)
    p1, p3, p4, p5 = _power_rows(kcol, j, wk, 1, 3, 4, 5)     # p = 2 is G

    H, G, A_, B, Bp, B2, Bpp, B1, p1, p3, p4, p5 = (
        x[:, :k_max] for x in (H, G, A_, B, Bp, B2, Bpp, B1, p1, p3, p4, p5))
    shift = np.concatenate((np.zeros((nl, 1)), bpp_shift[:, : k_max - 1]), axis=1)
    # (name, shift, the k it applies at (None: every k), the (lambda, k) outcome)
    checks: list[tuple[str, float | None, np.ndarray | None, np.ndarray]] = [
        ("H range", None, None, (1.0 - alpha - slack <= H) & (H <= 1.0 + slack)),
        ("A nonnegative", None, None, A_ >= -slack),
        ("B coefficient bound", None, None, B <= alpha * (1.0 - alpha) / kc + slack),
        ("B' coefficient bound", None, None, Bp <= lam / (kc + 1) + slack),
        ("B'' coefficient bound", None, None, Bpp <= n2 / (kc + 2) + slack),
        ("G vs A bound", None, None, G <= inv**2 + 3.0 * A_ + slack),
    ]
    for p, moment in enumerate((p1, G, p3, p4, p5), start=1):
        checks.append((f"power moment bound p={p}", None, None,
                       moment <= inv**p + A_ * p * (p + 1) / 2.0 + slack))
    checks += [
        ("B' vs A upper", None, None, Bp <= A_ * (1.0 + 3.0 * lam) * inv + slack),
        ("B vs A lower", None, None, B >= A_ / 2.0 - slack),
        ("B' vs A lower", None, None, Bp >= (1.0 - lam) * A_ / 2.0 - slack),
        ("(k+1)A nonincreasing", None, None, seq[:, 1:] <= seq[:, :-1] + slack),
        ("(k+1)A range", None, None, (alpha * (1.0 - lam) * inv**2 - slack <= seq[:, :-1])
         & (seq[:, :-1] <= alpha * (1.0 - lam) + slack)),
        ("A asymptotic range", None, None, (scale / (kc + 1) - slack <= A_)
         & (A_ <= scale * (kc + 1) / kc**2 + slack)),
        ("A asymptotic range k>=2", None, ge2, A_ <= scale / np.maximum(kc - 1, 1) + slack),
        ("H Taylor upper", None, None, H <= h_up + slack),
        ("G Taylor lower", None, None, G >= g_low - slack),
        ("B''+B1 identity", None, ge2, np.abs(Bpp + B1 - 1.0) <= slack),
        ("B'' shift identity", None, ge2, np.abs(Bpp - shift) <= slack),
        # the pair functional is degenerate for a single particle
        # (convention B''(1) = 0), so the lower bound starts at k = 2
        ("B'' lower bound", None, ge2, Bpp >= n2 * inv**2 * kc / (kc + 1) ** 2 - slack),
        ("B2 decomposition", None, None, np.abs(B2 - (1.0 - H) ** 2 - Bp) <= slack),
    ]

    hy_checks = []
    c_rows = _c_rows(kcol, j, wk, np.reshape(y_values, (-1, 1, 1, 1)))   # all shifts at once
    for y, C, Cp, Cpp, Hy in zip(y_values, *c_rows):
        C, Cp, Cpp = C[:, :k_max], Cp[:, :k_max], Cpp[:, :k_max]
        ky = kc + y
        on = ky > 0
        checks += [
            ("C'' vs C'", y, on, Cpp <= Cp + slack),
            ("C' vs 1-H", y, on, ky * Cp <= 1.0 - H + slack),
            ("C vs H_y", y, on, C <= Hy[:, :k_max] + slack),
            ("C' contraction", y, on, ky * Cp <= alpha + slack),
        ]
        if y >= 0:
            checks.append(("C contraction", y, on, C <= 1.0 - lam / (y + 2.0) + slack))
            hy_checks += [
                ("H_y nonincreasing", y, on, Hy[:, 1:] <= Hy[:, :-1] + slack),
                ("H_y floor", y, on, Hy[:, :-1] >= inv - slack),
            ]
        elif y == -1.0:
            on = on & ge2
            checks.append(("C contraction shift -1", y, on, C <= 1.0 - alpha + slack))
            hy_checks += [
                ("H_-1 nondecreasing", y, on, Hy[:, 1:] >= Hy[:, :-1] - slack),
                ("H_-1 ceiling", y, on, Hy[:, :-1] <= inv + slack),
            ]
    checks += hy_checks

    failed = np.empty((nl, k_max, len(checks)), dtype=bool)   # (lambda, k, check)
    checked = 0
    for c, (_, _, on, ok) in enumerate(checks):
        if on is None:
            failed[..., c] = ~ok
            checked += nl * k_max
        else:
            failed[..., c] = on & ~ok
            checked += nl * int(np.count_nonzero(on))

    wt = binom_rows(np.full(nl, _TAIL_K), lam[:, 0])
    tail = _TAIL_K * _centred(_h_rows(_TAIL_K, np.arange(_TAIL_K + 1), wt), lam[:, 0])
    tail_ok = np.abs(tail - scale[:, 0]) <= 0.15 * scale[:, 0] + slack

    bad: list[str] = []
    for i, lam_i in enumerate(block):
        for k0, c in np.argwhere(failed[i]):
            name, y, _, _ = checks[c]
            yt = "" if y is None else f", y={y}"
            bad.append(f"{name} (k={k0 + 1}, lam={lam_i}{yt})")
        if not tail_ok[i]:
            bad.append(f"kA(k) tail (lam={lam_i})")
    return bad, checked + nl
