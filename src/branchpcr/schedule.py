"""Per-cycle efficiency schedules and the sequences derived from them.

The amplification model is parameterized by efficiencies lambda_k in [0, 1]:
during cycle k every particle duplicates independently with probability
lambda_k. Downstream moment envelopes, estimator corrections and distance
bounds all consume deterministic sequences of the schedule, computed here
exactly and in O(n): the sampling weights alpha_k = lambda_k/(1 + lambda_k),
the inverse growth factors gamma_n, their order-i variants gamma_n^(i), the
cumulative weights W_n and W'_n, the correction sums v, v', v'' and the
remainder coefficient sums u, u', u'' (in both variants).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Literal, Sequence

ScheduleKind = Literal["deterministic", "michaelis_menten"]
Floats = tuple[float, ...]


@dataclass(frozen=True)
class EfficiencySchedule:
    """A validated efficiency description.

    Deterministic schedules carry an explicit vector of duplication
    probabilities. Michaelis-Menten schedules compute the efficiency from the
    population size at simulation time (D/(C + S_prev)), so they have no fixed
    vector and are rejected by everything that needs one. ``efficiency``
    gives both kinds as one law lambda(cycle, size), which the exact
    programs and the simulators read.
    """

    kind: ScheduleKind
    lambdas: tuple[float, ...] = ()
    mm_C: float = 0.0
    mm_D: float = 0.0

    def prefix(self, n: int) -> Floats:
        """First n efficiencies. Deterministic schedules only."""
        if self.kind != "deterministic":
            raise ValueError("schedule is population-dependent, no fixed efficiency vector")
        if n > len(self.lambdas):
            raise ValueError(f"schedule has {len(self.lambdas)} cycles, {n} requested")
        return self.lambdas[:n]

    def efficiency(self, S0: int, n: int):
        """lam_at(c, s): the efficiency of cycle c + 1 at population size s.

        Checks once that n cycles from S0 are valid: S0 >= 1, a fixed
        schedule covers n cycles, and a saturating one has D <= C + S0
        (``mm_lambda``), which holds at every later size, since sizes only
        grow. ``lam_at`` returns the fixed schedule's float whatever s is, or
        D/(C + s) for an int or an array s.
        """
        if S0 < 1:
            raise ValueError("initial population must be at least 1")
        if self.kind == "deterministic":
            lam = self.prefix(n)
            return lambda c, s: lam[c]
        C, D = self.mm_C, self.mm_D
        mm_lambda(S0, C, D)
        return lambda c, s: D / (C + s)


@dataclass(frozen=True)
class DerivedSequences:
    """All deterministic sequences of a schedule prefix.

    Tuples of floats indexed by cycle count j = 0..n, except ``lam`` and
    ``alpha`` which have length n with entry k-1 for cycle k. The u-family is
    stored without its initial-size prefactor (1/(S0-1), or 1/S0 and 1/(S0+1)
    for the wide-range variant); callers apply the prefactor at query time.
    """

    n: int
    lam: Floats          # lambda_k
    alpha: Floats        # lambda_k / (1 + lambda_k)
    gamma: Floats        # prod_{k<=j} 1/(1 + lambda_k); gamma[0] = 1
    gamma_i: dict[int, Floats]  # i -> prod_{k<=j} (1 - lambda_k/i), i in {2, 3}
    W: Floats            # sum_{k<=j} alpha_k
    Wp: Floats           # sum_{k<=j} alpha_k (1 - alpha_k)
    lambda_star: Floats  # running min of lambda_1..lambda_j; +inf at j=0
    v: Floats            # sum gamma_{k-1} alpha_k (1 - lambda_k)/(1 + lambda_k)^2
    vp: Floats           # sum gamma^(2)_{k-1} alpha_k (1 - lambda_k)
    vpp: Floats          # sum gamma^(3)_{k-1} alpha_k (1 - lambda_k)
    u: Floats            # sum alpha_k (1 - alpha_k) gamma_{k-1}
    up: Floats           # sum lambda_k gamma_{k-1}
    upp: Floats          # sum_{i<j} lambda_{i+1}(1-lambda_{i+1}) gamma_i sum_{k<=i} lambda_k
    u_wide: Floats       # wide-range variant of u, with gamma^(2)
    up_wide: Floats      # wide-range variant of u', with gamma^(3)
    upp_wide: Floats     # wide-range variant of u''


def _sums(terms) -> Floats:
    """Running sums 0, t_1, t_1 + t_2, ..., added left to right."""
    return tuple(accumulate(terms, initial=0.0))


def _products(factors) -> Floats:
    """Running products 1, f_1, f_1 f_2, ..., multiplied left to right."""
    return tuple(accumulate(factors, operator.mul, initial=1.0))


def gamma_sequence(lam: Sequence[float], order: float) -> Floats:
    """Cumulative products prod_{k<=j} (1 - lambda_k/order), j = 0..len(lam)."""
    if not order > 0:
        raise ValueError("order must be positive")
    return _products(1.0 - x / order for x in lam)


def build_schedule(
    lambdas: Sequence[float] | None = None,
    *,
    mm_C: float | None = None,
    mm_D: float | None = None,
) -> EfficiencySchedule:
    """Validate a schedule description.

    Pass either ``lambdas`` (efficiencies in [0, 1], at least one) or both
    ``mm_C`` and ``mm_D`` for a population-dependent schedule. Exactly one
    form must be given.
    """
    if lambdas is not None:
        if mm_C is not None or mm_D is not None:
            raise ValueError("give either an efficiency vector or (mm_C, mm_D), not both")
        lam = tuple(float(x) for x in lambdas)
        if not lam:
            raise ValueError("empty efficiency sequence")
        for k, x in enumerate(lam, start=1):
            if not math.isfinite(x) or not 0.0 <= x <= 1.0:
                raise ValueError(f"efficiency lambda_{k}={x} outside [0, 1]")
        return EfficiencySchedule(kind="deterministic", lambdas=lam)
    if mm_C is None or mm_D is None:
        raise ValueError("schedule needs an efficiency vector or both mm_C and mm_D")
    if not (mm_C > 0.0 and mm_D > 0.0):
        raise ValueError("rate constants must be positive")
    return EfficiencySchedule(kind="michaelis_menten", mm_C=float(mm_C), mm_D=float(mm_D))


def mm_lambda(S_prev: int, C: float, D: float) -> float:
    """Efficiency of the next cycle in an enzyme-limited reaction.

    The duplication probability decays with the current population size as
    D/(C + S_prev). Requires D <= C + S_prev so the result is a probability;
    this holds for all later cycles once it holds for the first.
    """
    if S_prev < 1:
        raise ValueError("population size must be at least 1")
    if not (C > 0.0 and D > 0.0):
        raise ValueError("rate constants must be positive")
    if D > C + S_prev:
        raise ValueError(f"D={D} exceeds C + S_prev={C + S_prev}, efficiency would exceed 1")
    return D / (C + S_prev)


def derived_sequences(sched: EfficiencySchedule, n: int) -> DerivedSequences:
    """Compute every derived sequence of the first n cycles of a schedule.

    Left-to-right accumulation throughout, so the result for m < n cycles is
    an exact prefix of the result for n cycles.
    """
    if n < 0:
        raise ValueError("cycle count must be nonnegative")
    lam = sched.prefix(n)
    alpha = tuple(x / (1.0 + x) for x in lam)
    aa = tuple(a * (1.0 - a) for a in alpha)
    # zip stops at cycle n, so each gamma enters as gamma_{k-1}
    gamma = _products(1.0 / (1.0 + x) for x in lam)
    g2 = gamma_sequence(lam, 2.0)
    g3 = gamma_sequence(lam, 3.0)

    W = _sums(alpha)
    Wp = _sums(aa)
    lambda_star = tuple(accumulate(lam, min, initial=math.inf))

    v = _sums(g * a * (1.0 - L) / ((1.0 + L) * (1.0 + L))
              for L, a, g in zip(lam, alpha, gamma))
    vp = _sums(g * a * (1.0 - L) for L, a, g in zip(lam, alpha, g2))
    # vp and vpp are the y = 0 and y = 1 routes through the same per-cycle
    # bound (k + 1) A(k, lambda_k) <= alpha_k (1 - lambda_k): averaging it
    # against E[1/(S_{k-1} + 1)] <= gamma^(3)_{k-1}/(S0 + 1) gives
    # V_n <= vpp[n]/(S0 + 1), with equality at S0 = 1, n = 1.
    vpp = _sums(g * a * (1.0 - L) for L, a, g in zip(lam, alpha, g3))

    u = _sums(w * g for w, g in zip(aa, gamma))
    up = _sums(L * g for L, g in zip(lam, gamma))
    u_wide = _sums(w * g for w, g in zip(aa, g2))
    up_wide = _sums(L * g for L, g in zip(lam, g3))

    # The double sums collapse after swapping the summation order:
    # upp[j] = sum_{i=1}^{j-1} lambda_{i+1}(1-lambda_{i+1}) gamma_i * Lsum_i,
    # with Lsum_i the partial sum of lambda_1..lambda_i; same shape for the
    # wide variant with gamma^(2) and weights alpha_k/(1 - lambda_k/2).
    # Lsum_i and Csum_i are entry i of the zero-prefixed running sums; the
    # leading zero of upp is its j = 1 entry, and n = 0 keeps only j = 0.
    Lsum = _sums(lam)
    Csum = _sums(a / (1.0 - L / 2.0) for L, a in zip(lam, alpha))
    inner = [L * (1.0 - L) for L in lam[1:]]
    upp = ((0.0,) + _sums(c * g * s for c, g, s in zip(inner, gamma[1:], Lsum[1:])))[: n + 1]
    upp_wide = ((0.0,) + _sums(c * g * s for c, g, s in zip(inner, g2[1:], Csum[1:])))[: n + 1]

    return DerivedSequences(
        n=n,
        lam=lam,
        alpha=alpha,
        gamma=gamma,
        gamma_i={2: g2, 3: g3},
        W=W,
        Wp=Wp,
        lambda_star=lambda_star,
        v=v,
        vp=vp,
        vpp=vpp,
        u=u,
        up=up,
        upp=upp,
        u_wide=u_wide,
        up_wide=up_wide,
        upp_wide=upp_wide,
    )
