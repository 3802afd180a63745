"""Exact binomial and Poisson probabilities, after Loader (2000).

C. Loader, "Fast and accurate computation of binomial probabilities": one
probability is exp of Stirling-series remainders and deviance terms, each
free of cancellation. Here that saddle-point value is taken at the mode only,
and the rest of a row follows from the ratio recurrence p_{j+1}/p_j, walked
outward from the mode so every step shrinks the value and the tails underflow
gracefully to zero.

``binom_band`` does this for many rows at once: the mode values in one array
pass, the walks as 2-D cumulative products, and each row cut to a band
around its mean past which Hoeffding's inequality leaves at most
``BAND_TAIL`` of the mass. ``binom_row`` is its uncut one-row case, and
``size_transitions`` steps a size law S -> S + Binomial(S, lambda) through
such bands: each cycle it drops the ends of the law that hold at most
``BAND_TAIL/4`` each and cuts the rows of the sizes it keeps at
``BAND_TAIL/2``, so a cycle leaves out at most ``BAND_TAIL``. With
``poisson_table`` they are the package's only source of binomial and
Poisson weights: the harmonic functionals, the size-law and moment programs
and the simulator's increment table all read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# ``size_transitions`` spends BAND_TAIL per cycle: at most a quarter at each
# end of the law, where it drops sizes, and half in the cuts of the rows of
# the sizes it keeps (a mass-weighted average of the row cuts)
_END_TAIL = BAND_TAIL / 4
_ROW_TAIL = BAND_TAIL / 2
# band weights per block of source sizes in ``size_transitions``, which
# bounds the memory of the size programs
_BLOCK_CELLS = 1 << 18


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
    band is that one cell and its cut 0. ``tail = 0`` keeps whole rows.
    """
    s = np.asarray(s, dtype=float)
    if tail == 0.0:
        zero = 0.0 * s
        return zero, s, zero
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


def binom_band(
    s: np.ndarray, lam: np.ndarray | float, tail: float = BAND_TAIL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomial(s_i, lam_i) rows, each cut to its band from ``band_limits``.

    ``lam`` is one efficiency or one per row. Returns (lo, w, cut): w[i, c]
    is the probability of lo[i] + c duplications among s[i] particles, zero
    past the row's band; lo is an int array and cut the per-row tail bound.
    """
    s = np.asarray(s, dtype=float)
    lam = np.asarray(lam, dtype=float)
    q = 1.0 - lam
    m = np.minimum(s, np.floor((s + 1.0) * lam))
    lo, hi, cut = band_limits(s, lam, tail)
    j = lo[:, None] + np.arange(int((hi - lo).max()) + 1.0)
    S, L, Q, M = s[:, None], lam[..., None], q[..., None], m[:, None]
    # p_j/p_{j-1} = (s - j + 1) lam / (j q) above the mode and p_j/p_{j+1} =
    # (j + 1) q / ((s - j) lam) below it, each cumulated outward from the mode
    # (value 1). lam and q enter each ratio apart, never as one rounded lam/q
    # whose error every step would repeat. Past the band the ratio is 0.
    inside = j <= hi[:, None]
    up = inside.astype(float)
    np.divide((S - j + 1.0) * L, j * Q, out=up, where=inside & (j > M))
    down = np.ones_like(j)
    np.divide((j + 1.0) * Q, (S - j) * L, out=down, where=j < M)
    w = np.cumprod(up, axis=1)
    w *= np.cumprod(down[:, ::-1], axis=1)[:, ::-1]
    # 1 - lam = q (1 + c) exactly; the rounding of q itself is in every ratio,
    # so the value |j - m| steps out from the mode is off by (1 + c)^(j - m)
    c = ((1.0 - q) - lam) / np.where(q > 0.0, q, 1.0)
    pm = _binom_mode(m, s, lam, q)
    w *= (pm * (1.0 + c * m))[:, None] - (pm * c)[:, None] * j
    return lo.astype(np.int64), w, cut


def binom_row(s: int, lam: float) -> np.ndarray:
    """Binomial(s, lam) probabilities of 0..s: the uncut one-row band."""
    return binom_band(np.array([s]), lam, tail=0.0)[1][0]


@dataclass(frozen=True)
class SizeBand:
    """The banded rows s -> s + Binomial(s, lam) of a block of source sizes."""

    rows: slice         # the sources' positions in the current support
    s: np.ndarray       # (K, 1) source sizes
    lam: np.ndarray     # (K,) their efficiencies
    j: np.ndarray       # (K, B) duplication counts
    w: np.ndarray       # (K, B) their probabilities, zero past each band
    to: np.ndarray      # (K, B) positions of s + j in the next support
    cut: np.ndarray     # (K,) bound on each row's mass outside its band

    def scatter(self, x: np.ndarray, width: int) -> np.ndarray:
        """Sum x over the (source, j) cells that land on each next size."""
        return np.bincount(self.to.ravel(), x.ravel(), width)


def size_transitions(lam_at, c: int, first: int, p: np.ndarray, cap: int):
    """Cycle c + 1 of S_k = S_{k-1} + Binomial(S_{k-1}, lam), banded and trimmed.

    ``p`` is the current law: the probabilities of the sizes first ..
    first + len(p) - 1. ``lam_at(c, s)`` gives the efficiency of cycle c + 1
    at source sizes s (``EfficiencySchedule.efficiency``), one float or one
    per size. The leading and the trailing sizes of p that hold at
    most BAND_TAIL/4 of the mass at each end are dropped, and the rows of
    the kept sizes are cut at BAND_TAIL/2, so the step leaves out at most
    BAND_TAIL. Returns (dropped, first, width, bands): ``dropped`` is the
    mass of the dropped sizes, the next support is the sizes first ..
    first + width - 1, and ``bands`` yields the kept rows as ``SizeBand``
    blocks of at most _BLOCK_CELLS weights each, whose ``rows`` slice p.
    The support is the union of the bands, so it grows by about
    lam s + 4.5 sqrt(s) a cycle; its largest size must stay <= cap.
    """
    lead = int(np.searchsorted(np.cumsum(p), _END_TAIL, side="right"))
    trail = int(np.searchsorted(np.cumsum(p[::-1]), _END_TAIL, side="right"))
    kept = slice(lead, len(p) - trail)
    dropped = float(p[:lead].sum() + p[kept.stop :].sum())
    s = first + np.arange(kept.start, kept.stop, dtype=float)
    lam = np.broadcast_to(lam_at(c, s), s.shape)
    lo, hi, _ = band_limits(s, lam, _ROW_TAIL)
    base, top = int((s + lo).min()), int((s + hi).max())
    if top > cap:
        raise ValueError(f"size support reaches {top} at cycle {c + 1}, above cap {cap}")
    width = top - base + 1
    rows = max(1, _BLOCK_CELLS // int((hi - lo).max() + 1.0))
    return dropped, base, width, _size_bands(s, lam, kept.start, base, width, rows)


def _size_bands(s: np.ndarray, lam: np.ndarray, at: int, first: int, width: int, rows: int):
    """The rows of sources s, ``rows`` at a time, into a support from ``first``.

    s[0] sits at position ``at`` of the current support.
    """
    for a in range(0, len(s), rows):
        sl = slice(a, a + rows)
        lo, w, cut = binom_band(s[sl], lam[sl], _ROW_TAIL)
        j = lo[:, None] + np.arange(w.shape[1])
        src = s[sl, None]
        # cells past a row's band carry weight 0; clipping keeps them in range
        to = np.minimum(src.astype(np.int64) - first + j, width - 1)
        yield SizeBand(slice(at + a, at + a + len(src)), src, lam[sl], j.astype(float), w, to, cut)


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
