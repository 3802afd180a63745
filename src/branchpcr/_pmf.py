"""Exact binomial and Poisson probabilities, after Loader (2000).

C. Loader, "Fast and accurate computation of binomial probabilities": one
probability is exp of Stirling-series remainders and deviance terms, each
free of cancellation. Here that saddle-point value is taken at the mode only,
and the rest of a row follows from the ratio recurrence p_{j+1}/p_j, walked
outward from the mode so every step shrinks the value and the tails underflow
gracefully to zero.

These two functions are the package's only source of binomial and Poisson
weights: the harmonic functionals, the size-law and moment programs and the
simulator's increment table all read them.
"""

from __future__ import annotations

import math

import numpy as np

_LN_2PI = math.log(2.0 * math.pi)

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15 (40-digit
# values rounded to double; n = 0 is never looked up)
_STIRLERR = (
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
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(n: int) -> float:
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    if n > 500:
        return (_S0 - _S1 / nn) / n
    if n > 80:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """Deviance x log(x/m) + m - x, by its series where the terms cancel."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        v *= v
        j = 3
        while True:
            ej *= v
            s1 = s + ej / j
            if s1 == s:
                return s
            s = s1
            j += 2
    return x * math.log(x / m) + m - x


def _binom_at(x: int, n: int, p: float, q: float) -> float:
    """Binomial(n, p) probability of x, with q = 1 - p; 0 < p < 1."""
    if x == 0:
        return math.exp(n * math.log1p(-p))
    if x == n:
        return math.exp(n * math.log(p))
    lc = (
        _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
        - _bd0(x, n * p) - _bd0(n - x, n * q)
    )
    return math.exp(lc - 0.5 * (_LN_2PI + math.log(x) + math.log1p(-x / n)))


def binom_row(s: int, lam: float) -> np.ndarray:
    """Binomial(s, lam) probabilities of 0..s."""
    if lam == 0.0 or lam == 1.0:
        row = np.zeros(s + 1)
        row[s if lam else 0] = 1.0
        return row
    q = 1.0 - lam
    m = min(s, int((s + 1) * lam))
    i = np.arange(s + 1.0)
    # p_{i+1}/p_i = a_i/b_i for i = 0..s-1; lam and q enter each ratio apart,
    # never as one rounded lam/q whose error every step would repeat
    a = (s - i[:-1]) * lam
    b = i[1:] * q
    row = np.empty(s + 1)
    row[m] = 1.0
    row[m + 1 :] = np.cumprod(a[m:] / b[m:])
    row[:m] = np.cumprod(b[:m][::-1] / a[:m][::-1])[::-1]
    # 1 - lam = q (1 + c) exactly; the rounding of q itself is in every ratio,
    # so the value |m - i| steps out from the mode is off by (1 + c)^(i - m)
    c = ((1.0 - q) - lam) / q
    pm = _binom_at(m, s, lam, q)
    row *= pm * (1.0 + c * m) - (pm * c) * i
    return row


def _poisson_at(x: int, mu: float) -> float:
    """Poisson(mu) probability of x; mu > 0."""
    if x == 0:
        return math.exp(-mu)
    return math.exp(-_stirlerr(x) - _bd0(x, mu)) / math.sqrt(2.0 * math.pi * x)


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
