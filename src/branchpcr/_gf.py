"""The generating-function integrator behind the exact oracles of ``moments``.

Both oracles are integrals over [0, 1] of the size law's generating
function G_n(x) = (g_1 o ... o g_n(x))^S0, g_k(x) = x (1 - lambda_k +
lambda_k x) (Harris 1963, ch. I), times factors read off the same maps.
``integrate`` takes them in w = 1 - x, in three parts:

- The panels (``_panels``) follow S_n's mean m = S0 prod(1 + lambda_k):
  G_n(1 - w) falls off past w near 1/m, so the edges are 0, 4^j / m below
  1, and 1, the same for every integral.
- The maps (``_compose``) run last cycle first, once per abscissa, in a
  form that keeps the small digits of both a and 1 - a; a caller reads a
  before each map, so every cycle costs O(n) per abscissa, and G_n is
  exp(S0 log a) from ``_a_log``.
- The kernel (``_gauss_kronrod``) is adaptive Gauss-Kronrod G7/K15
  quadrature (Piessens et al., QUADPACK, 1983). It evaluates every
  integral of a call at each abscissa once, splits a piece until every
  integral's |K15 - G7| there fits its share of the tolerance (_PGF_RTOL
  of each integral's first-pass estimate for ``integrate``), and bounds
  the sum of the integrals' absolute errors, rounding included.

``harmonic.A_integral`` runs the kernel's one-panel path.
"""

from __future__ import annotations

import math

import numpy as np

from .schedule import Floats

_PGF_RTOL = 1e-13   # each integral's tolerance, relative to its first-pass estimate
_QUAD_BUDGET = 10**6

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
# the first quadrature pass: _GK_PIECES equal pieces of each panel, their
# edges, tolerance shares and (piece, node) abscissae on [0, 1], each scaled
# to a panel by one multiply-add per call
_GK_PIECES = 16
_GK_UNIT_HALF = 0.5 / _GK_PIECES
_GK_UNIT_LO = np.arange(_GK_PIECES) / _GK_PIECES
_GK_UNIT_HI = np.arange(1, _GK_PIECES + 1) / _GK_PIECES
_GK_UNIT_SHARE = np.full(_GK_PIECES, 1.0 / _GK_PIECES)
_GK_UNIT_X = (_GK_UNIT_LO + _GK_UNIT_HALF)[:, None] + _GK_UNIT_HALF * _GK_NODES
_EPS = float(np.finfo(float).eps)


def integrate(lam: Floats, S0: int, integrand):
    """(integrals, error bound) of ``integrand`` over x in [0, 1], as w = 1 - x on ``_panels``.

    At each array of abscissae w, ``integrand(w, maps, loga)`` returns its
    integrals' values on a new leading axis: ``maps`` lists (lambda, a)
    before each map with lambda > 0, last cycle first, and ``loga`` is
    log a after all of them, so G_n(1 - w) = exp(S0 loga).
    """
    edges = _panels(S0, lam)

    def g(w: np.ndarray) -> np.ndarray:
        v = w.copy()
        maps = list(_compose(v, lam))
        return integrand(w, maps, _a_log(v))

    return _gauss_kronrod(g, edges[:-1], edges[1:], 0.0, rtol=_PGF_RTOL)


def _panels(S0: int, lam: Floats) -> np.ndarray:
    """Quadrature panel edges in w = 1 - x for S_n, of mean m: 0, 4^j / m below 1, and 1.

    A generating function G(1 - w) of a law of mean m falls off past w near
    1/m, so the panels follow that scale and widen geometrically after it.
    A mean that overflows raises ValueError.
    """
    m = S0 * math.prod(1.0 + L for L in lam)
    if not math.isfinite(m):
        raise ValueError(f"mean size S0 prod(1 + lambda_k) overflows after {len(lam)} cycles")
    edges = [0.0]
    w = 1.0 / m
    while w < 1.0:
        edges.append(w)
        w *= 4.0
    edges.append(1.0)
    return np.array(edges)


def _compose(v: np.ndarray, lam: Floats):
    """Compose the size maps a <- a (1 - lambda + lambda a) in place, last cycle first.

    ``v`` holds each abscissa's a as w = 1 - a while w < 1/2 and as -a (sign
    bit set; -0.0 once a underflows, or at w = 1) after: the w form is w <-
    w + lambda w (1 - w), the x form -a <- -a (1 - lambda + lambda a), and
    the switch -(1 - w) at w in [1/2, 1] is exact, so neither side of a
    loses its small digits. The w form adds, as a factor 1 + lambda would
    round alike at each repeat of a lambda; the x form multiplies, which
    keeps an underflowed -0.0 negative. A cycle with lambda 0 is the
    identity and is skipped. Before each map the generator yields (lambda,
    a), so a caller reads a, not its encoding: one pass, O(n) per abscissa,
    serves every cycle. ``_a_log`` reads log a at the end.
    """
    for c in range(len(lam) - 1, -1, -1):
        L = lam[c]
        if L == 0.0:
            continue
        yield L, np.where(np.signbit(v), -v, 1.0 - v)
        np.negative(1.0 - v, out=v, where=v >= 0.5)   # to x form, exactly: w in [1/2, 1]
        x = np.signbit(v)
        np.multiply(v, (1.0 - L) - L * v, out=v, where=x)
        np.add(v, L * v * (1.0 - v), out=v, where=~x)


def _a_log(v: np.ndarray) -> np.ndarray:
    """log a from ``_compose``'s w or x form: log1p(-w), or log x (-inf where x is 0)."""
    loga = np.log1p(-v)
    with np.errstate(divide="ignore"):
        np.log(-v, out=loga, where=np.signbit(v))
    return loga


def _gauss_kronrod(g, a, b, tol: float, rtol: float = 0.0, *, bound: bool = True):
    """Adaptive G7/K15 quadrature over panels; (integral or integrals, error bound or None).

    With float ``a`` and ``b``, [a, b] is one panel, ``g`` takes an array of
    abscissae and the integral is a float. With arrays, ``a`` and ``b`` are
    the edges of panels that m integrals share: ``g`` takes the abscissae,
    one row of 15 per piece, and returns an (m, pieces, 15) array, each
    integral's integrand at every abscissa, and the integrals come back as
    an array of m. b < a integrates backwards, with negative half-widths.

    The first pass cuts every panel into _GK_PIECES equal pieces, the unit
    pieces of [0, 1] and their abscissae scaled to it. Each integral's
    tolerance, ``tol`` plus ``rtol`` times the absolute value of its
    first-pass estimate, is shared equally among the first-pass pieces. Each
    pass evaluates g once over every open piece, accepts a piece when every
    integral's |K15 - G7| there is within its share and splits it in two,
    halving the shares, otherwise; a pass that accepts every piece, the
    usual last one, keeps them without masked copies. Each integral is the
    correctly rounded sum (math.fsum) of its accepted pieces. The returned
    error bounds the sum of the integrals' absolute errors: the sum of
    |K15 - G7| over the accepted pieces plus a bound on the rounding of
    their rule sums and of the integrals' sums, after QUADPACK's qk15
    (Piessens et al., 1983). A call that would pass _QUAD_BUDGET evaluations
    (abscissae times integrals, counted as one integral until g first
    returns) raises RuntimeError. With ``bound=False`` neither the |K15 - G7| sum nor
    the rounding size is accumulated, the bound comes back as None, and a
    one-panel call whose first pass accepts every piece returns at once;
    the integrals are the same to the bit.

    The one-panel path is kept apart for speed: on a shared 2-CPU machine,
    ``A_integral``'s 360-integral acceptance-4 grid (k = 1..40, lambda =
    0.1..0.9), with ``bound=False``, took a median 6.3 ms on it, 11.3 ms as
    one-panel, one-integral array calls (14.2 ms with the bound), and
    28.1 ms as the one-cycle, S0 = k integral of ``integrate``.
    """
    shared = isinstance(a, np.ndarray)
    if shared:
        a = a[:, None]                 # (panel, 1) columns
        span = b[:, None] - a
        half = np.repeat(span * _GK_UNIT_HALF, _GK_PIECES)
        x = (a[..., None] + span[..., None] * _GK_UNIT_X).reshape(half.size, -1)
    else:
        span = b - a
        half = span * _GK_UNIT_HALF    # one half-width while the pieces are equal
        x = a + span * _GK_UNIT_X
    lo = hi = share = None             # the first pass's edges are made if it splits
    parts = []
    err = size = 0.0
    evals = 0
    m = 1                              # integrals, known once g returns
    while True:
        evals += m * x.size
        if evals > _QUAD_BUDGET:
            raise RuntimeError(f"quadrature exceeded {_QUAD_BUDGET} evaluations")
        f = g(x)
        if shared:                     # one (integral * piece, 15) matrix for the rules
            m = len(f)
            f = f.reshape(-1, 15)
            k15 = half * (f @ _GK_K15).reshape(-1, half.size)
            diff = np.abs(k15 - half * (f @ _GK_G7).reshape(k15.shape))
        else:
            k15 = half * (f @ _GK_K15)
            diff = np.abs(k15 - half * (f @ _GK_G7))
        if share is None:
            if shared:
                est = np.abs(k15.sum(axis=1, keepdims=True))
                share = np.repeat((tol + rtol * est) / half.size, half.size, axis=1)
            else:
                share = (tol + rtol * abs(k15.sum()) if rtol else tol) * _GK_UNIT_SHARE
        done = diff <= share
        if shared:
            done = done.all(axis=0)    # a piece waits for its slowest integral
        last = bool(done.all())
        if last and not (bound or shared or parts):    # a one-panel call's one pass
            return math.fsum(k15.tolist()), None
        take = slice(None) if last else done
        if shared:
            take = np.s_[:, take]      # every integral's row
        parts.append(k15[take])
        if bound:
            err += diff[take].sum()
            rule = (np.abs(f) @ _GK_K15).reshape(k15.shape)
            size += (np.abs(half) * rule)[take].sum()
        if last:
            break
        if lo is None:
            lo, hi = (a + span * _GK_UNIT_LO).ravel(), (a + span * _GK_UNIT_HI).ravel()
        keep = ~done
        lo, hi, share = lo[keep], hi[keep], 0.5 * share[np.s_[:, keep] if shared else keep]
        mid = 0.5 * (lo + hi)
        # each split piece's halves take its place, so the rows keep their order
        lo, hi = np.stack((lo, mid), axis=1).ravel(), np.stack((mid, hi), axis=1).ravel()
        share = np.repeat(share, 2, axis=-1)
        half = 0.5 * (hi - lo)
        x = (lo + half)[:, None] + half[:, None] * _GK_NODES
    # with u = eps/2, a rule sum (a 15-term dot product times the rounded
    # half-width) is off by at most 17 u of its sum of |terms|, and fsum adds
    # at most u of each integral; eps in place of u leaves room for the
    # second-order terms
    bound = float(err + 18 * _EPS * size) if bound else None
    vals = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    if not shared:
        return math.fsum(vals.tolist()), bound
    return np.array([math.fsum(row) for row in vals.tolist()]), bound
