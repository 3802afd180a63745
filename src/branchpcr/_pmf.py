"""Exact binomial and Poisson probabilities, after Loader (2000).

C. Loader, "Fast and accurate computation of binomial probabilities": one
probability is exp of Stirling-series remainders and deviance terms, each
free of cancellation. Here that saddle-point value is taken at the mode only,
and the rest of a row follows from the ratio recurrence p_{j+1}/p_j, walked
outward from the mode so every step shrinks the value and the tails underflow
gracefully to zero.

``binom_cells`` does this for many rows at once over the limits it is given:
the mode values in one array pass, the walks as 2-D cumulative products,
each over only the columns on its own side of the rows' modes. Only
``band_limits`` cuts a row, to a band around its mean past which Hoeffding's
inequality leaves at most ``BAND_TAIL`` of the mass; ``binom_rows`` takes
whole rows and ``binom_row`` one. ``size_program`` is the one dynamic
program over the size law S -> S + Binomial(S, lambda) through such bands:
each cycle it drops the ends of the law that hold at most ``BAND_TAIL/4``
each, cuts the rows of the sizes it keeps at ``BAND_TAIL/2`` in one
``band_limits`` call, so a cycle leaves out at most ``BAND_TAIL``, and sums
a caller's per-cell values onto the next sizes; a fixed schedule's
efficiency reaches the kernel as one float, a saturating one's as one per
size. The size law and the joint size-and-moment program are its two steps.
With ``poisson_table`` they are the package's only source of binomial and
Poisson weights: the harmonic functionals, the size-law and moment programs
and the simulator's increment table all read them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .schedule import EfficiencySchedule

_LN_2PI = math.log(2.0 * math.pi)

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15 (40-digit
# values rounded to double; 0 stands at n = 0, where it is used by
# convention, and at n = 16, past which the series takes over)
_STIRLERR = np.array((
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
    0.0,
))
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188

# A cut binomial row keeps the duplication counts within t of its mean s lam,
# where 2 exp(-2 t^2 / s) = BAND_TAIL: by Hoeffding (1963), as a row is a sum
# of s independent indicators, that bounds the mass it leaves out
BAND_TAIL = 1e-17
# ``size_program`` spends BAND_TAIL per cycle: at most a quarter at each end
# of the law, where it drops sizes, and half in the cuts of the rows of the
# sizes it keeps (a mass-weighted average of the row cuts)
_END_TAIL = BAND_TAIL / 4
_ROW_TAIL = BAND_TAIL / 2
# band weights per block of source sizes in ``size_program``, which bounds
# the memory of the size programs
_BLOCK_CELLS = 1 << 18
# the largest size ``size_program`` carries
_SIZE_CAP = 2_000_000


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """stirlerr at each integer-valued n >= 0: the table, then its series."""
    big = np.maximum(n, 16.0)
    nn = big * big
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / big
    return _STIRLERR[np.minimum(n, 16.0).astype(np.intp)] + (n > 15.0) * series


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Deviance x log(x/m) + m - x at each pair; x, m >= 0, m > 0 where x > 0.

    Where the two terms cancel (|x - m| < (x + m)/10) it is summed as the
    series in v = (x - m)/(x + m), whose terms shrink by v^2 < 1/100: a term
    that leaves every sum unchanged leaves it unchanged for the smaller ones
    after it too. At x = 0 it is m.
    """
    d = x - m
    near = np.abs(d) < 0.1 * (x + m)
    v = near * d / np.maximum(x + m, 1e-300)
    s = d * v
    ej = 2.0 * x * v
    v *= v
    j = 3
    while True:
        ej *= v
        s1 = s + ej / j
        if (s1 == s).all():
            break
        s = s1
        j += 2
    xlogx = x * np.log((x + (x == 0.0)) / np.maximum(m, 1e-300))
    return np.where(near, s, xlogx + m - x)


def _binom_mode(x: np.ndarray, n: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Binomial(n, p) probability of x at each entry, with q = 1 - p.

    Loader's form: exp of Stirling remainders and deviances, over
    sqrt(2 pi x (n - x)/n). At x = 0 the remainders cancel and the root is
    left out, which gives q^n = exp(-n p - bd0(n, n q)); x = n likewise.
    """
    k = len(x)
    st = _stirlerr(np.concatenate((n, x, n - x)))
    bd = _bd0(np.concatenate((x, n - x)), np.concatenate((n * p, n * q)))
    lc = st[:k] - st[k : 2 * k] - st[2 * k :] - bd[:k] - bd[k:]
    inner = (x > 0.0) & (x < n)
    xi, ni = np.where(inner, x, 1.0), np.where(inner, n, 2.0)
    return np.exp(lc - inner * (0.5 * (_LN_2PI + np.log(xi) + np.log1p(-xi / ni))))


def band_limits(
    s: np.ndarray, lam: np.ndarray | float, tail: float = BAND_TAIL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First and last duplication count kept in each Binomial(s, lam) row.

    Returns float arrays (lo, hi, cut): ``cut`` is Hoeffding's bound on the
    mass outside [lo, hi], one term for each side that drops anything, each
    at most tail/2. A row with lam 0 or 1 is the point mass at s lam: its
    band is that one cell and its cut 0.
    """
    s = np.asarray(s, dtype=float)
    mean = s * lam
    spread = lam * (1.0 - lam) > 0.0
    t = spread * np.sqrt(s * (0.5 * math.log(2.0 / tail)))
    lo = np.maximum(np.ceil(mean - t), 0.0)
    hi = np.minimum(np.floor(mean + t), s)
    # a count dropped below lo (above hi) lies at least mean - lo + 1
    # (hi + 1 - mean) > t from the mean
    scale = -2.0 / np.maximum(s, 1.0)
    cut = spread * ((lo > 0.0) * np.exp(scale * (mean - lo + 1.0) ** 2)
                    + (hi < s) * np.exp(scale * (hi + 1.0 - mean) ** 2))
    return lo, hi, cut


def binom_cells(
    s: np.ndarray, lam: np.ndarray | float, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Binomial(s_i, lam_i) rows over the duplication counts lo_i..hi_i.

    ``lam`` is one efficiency or one per row. Returns (j, w): the grid j[i, c]
    = lo[i] + c, as wide as the widest row, and w[i, c] the probability of
    j[i, c] duplications among s[i] particles, zero past hi[i]. The walks
    start at each row's mode, which ``band_limits`` keeps in the band
    whenever its tail is at most 2 e^-2 (the half-width is then at least 1).
    """
    s = np.asarray(s, dtype=float)
    lam = np.asarray(lam, dtype=float)
    q = 1.0 - lam
    m = np.minimum(s, np.floor((s + 1.0) * lam))
    j = lo[:, None] + np.arange(int((hi - lo).max()) + 1.0)
    S, L, Q, M = s[:, None], lam[..., None], q[..., None], m[:, None]
    # p_j/p_{j-1} = (s - j + 1) lam / (j q) above the mode and p_j/p_{j+1} =
    # (j + 1) q / ((s - j) lam) below it, each cumulated outward from the mode
    # (value 1). lam and q enter each ratio apart, never as one rounded lam/q
    # whose error every step would repeat. Past the band the ratio is 0.
    # Each walk is exactly 1 on the far side of its row's mode, so the upward
    # one runs only from the leftmost mode's column a on, and the downward one
    # only up to the rightmost mode's column b - 1: leading 1s leave a running
    # product unchanged. Columns left of a take the downward walk alone,
    # columns from b on the upward one (0 past a row's band), and the columns
    # between, where the rows' modes lie, the product of the two.
    a, b = int((m - lo).min()), int((m - lo).max()) + 1
    jr, jl = j[:, a:], j[:, :b]
    inside = jr <= hi[:, None]
    up = inside.astype(float)
    np.divide((S - jr + 1.0) * L, jr * Q, out=up, where=inside & (jr > M))
    down = np.ones_like(jl)
    np.divide((jl + 1.0) * Q, (S - jl) * L, out=down, where=jl < M)
    w = np.empty_like(j)
    np.cumprod(up, axis=1, out=w[:, a:])
    down = np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    w[:, :a] = down[:, :a]
    w[:, a:b] *= down[:, a:]
    # 1 - lam = q (1 + c) exactly; the rounding of q itself is in every ratio,
    # so the value |j - m| steps out from the mode is off by (1 + c)^(j - m)
    c = ((1.0 - q) - lam) / np.where(q > 0.0, q, 1.0)
    pm = _binom_mode(m, s, lam, q)
    if c.any():
        w *= (pm * (1.0 + c * m))[:, None] - (pm * c)[:, None] * j
    else:        # c = 0, as 1 - lam is exact for lam >= 1/2 (Sterbenz): the factor is pm
        w *= pm[:, None]
    return j, w


def binom_rows(s: np.ndarray, lam: np.ndarray | float) -> np.ndarray:
    """Whole Binomial(s_i, lam_i) rows, zero-padded to the widest: the limits (0, s)."""
    return binom_cells(s, lam, 0.0 * s, s)[1]


def binom_row(s: int, lam: float) -> np.ndarray:
    """Binomial(s, lam) probabilities of 0..s."""
    return binom_rows(np.array([s]), lam)[0]


def size_program(sched: EfficiencySchedule, S0: int, n: int, rows: int, step):
    """Banded program over the laws of S_0..S_n, S_k = S_{k-1} + Binomial(S_{k-1}, lam).

    Yields (first, vals, tail) after cycles 0..n: vals[r, i] is row r of
    ``rows`` at size first + i, row 0 the probability, and ``tail`` bounds
    the probability left out. Each cycle drops the sizes that hold at most
    BAND_TAIL/4 at each end of the law and cuts the rows of the sizes it
    keeps at BAND_TAIL/2, in one ``band_limits`` call; per block of at most
    _BLOCK_CELLS band weights, ``step(s, j, w, v)`` maps the (K, 1) sources
    s, the kernel's (K, B) duplication counts j and weights w and the
    sources' (rows, K, 1) values v to ``rows`` (K, B) arrays, each summed
    onto the sizes s + j before the next is drawn (a generator keeps one
    alive). A size above _SIZE_CAP raises ValueError; a fixed schedule
    whose mean S0 prod(1 + lam_k) passes it is refused before the first cycle.
    """
    lam_at = sched.efficiency(S0, n)
    fixed = sched.kind == "deterministic"
    mean = S0 * math.prod(1.0 + L for L in sched.prefix(n)) if fixed else 0.0
    if mean > _SIZE_CAP:
        raise ValueError(f"mean size {mean:.6g} after {n} cycles is above cap {_SIZE_CAP}")
    first, vals, tail = S0, np.eye(rows, 1), 0.0
    yield first, vals, tail
    for c in range(n):
        p = vals[0]
        lead = int(np.searchsorted(np.cumsum(p), _END_TAIL, side="right"))
        trail = int(np.searchsorted(np.cumsum(p[::-1]), _END_TAIL, side="right"))
        kept = slice(lead, len(p) - trail)
        tail += float(p[:lead].sum() + p[kept.stop :].sum())
        s = first + np.arange(kept.start, kept.stop, dtype=float)
        lam = lam_at(c, s)             # a fixed schedule's one float, else one per size
        lo, hi, cut = band_limits(s, lam, _ROW_TAIL)
        first, top = int((s + lo).min()), int((s + hi).max())
        if top > _SIZE_CAP:
            raise ValueError(f"size support reaches {top} at cycle {c + 1}, above cap {_SIZE_CAP}")
        width = top - first + 1
        block = max(1, _BLOCK_CELLS // int((hi - lo).max() + 1.0))
        kept_vals, vals = vals[:, kept, None], np.zeros((rows, width))
        for a in range(0, len(s), block):
            part = slice(a, a + block)
            j, w = binom_cells(s[part], lam if fixed else lam[part], lo[part], hi[part])
            src, v = s[part, None], kept_vals[:, part]
            # cells past a row's band carry weight 0; clipping keeps them in range
            to = np.minimum(src - first + j, width - 1).astype(np.intp).ravel()
            for r, x in enumerate(step(src, j, w, v)):
                vals[r] += np.bincount(to, x.ravel(), width)
            tail += float(v[0, :, 0] @ cut[part])
        yield first, vals, tail


def _poisson_at(x: int, mu: float) -> float:
    """Poisson(mu) probability of x; mu > 0."""
    if x == 0:
        return math.exp(-mu)
    xa = np.array([float(x)])
    lc = _stirlerr(xa) + _bd0(xa, np.array([mu]))
    return math.exp(-float(lc[0])) / math.sqrt(2.0 * math.pi * x)


def poisson_table(mu: float, tail: float) -> np.ndarray:
    """Poisson(mu) probabilities of 0..k+1, k its (1 - tail)-quantile.

    k is the least integer with P(X <= k) >= 1 - tail, as in
    ``scipy.stats.poisson.ppf``; the table is not renormalized.
    """
    if not 0.0 < tail < 1.0:
        raise ValueError(f"tail {tail} outside (0, 1)")
    # Chernoff: P(X >= mu + t) <= exp(-t^2 / (2 (mu + t/3))), so past `top`
    # lies less than tail * e^-40 of the mass
    ell = 40.0 - math.log(tail)
    top = int(math.ceil(mu + ell / 3.0 + math.sqrt(ell * ell / 9.0 + 2.0 * mu * ell))) + 2
    m = int(mu)
    pm = _poisson_at(m, mu)
    j = np.arange(1.0, top + 1.0)
    row = np.empty(top + 1)
    row[m] = pm
    row[m + 1 :] = pm * np.cumprod(mu / j[m:])
    row[:m] = (pm * np.cumprod(j[:m][::-1] / mu))[::-1]
    # P(X > i), summed from the top so it keeps its relative accuracy, against
    # the mass that the rounded level 1 - tail leaves above the quantile
    above = np.cumsum(row[:0:-1])[::-1]
    k = int(np.argmax(above <= 1.0 - (1.0 - tail)))
    return row[: k + 2]
