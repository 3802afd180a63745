"""Deterministic envelopes for saturating (Michaelis-Menten) efficiencies.

When the per-cycle efficiency is lambda_k = D / (C + S_{k-1}), the running
sum w_n of alpha_k = lambda_k / (1 + lambda_k) is random but trapped between
deterministic logarithmic envelopes in n. Combined with the finite-population
correction for the sampled mean, this brackets E(t) without simulating. The
exact E[w_n], from the size laws of the banded dynamic program, is the
reference the envelopes are checked against.
Everything is in natural logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moments import MutationLaw, _uniform_V, size_laws
from .schedule import EfficiencySchedule, build_schedule, mm_lambda


@dataclass(frozen=True)
class MMParams:
    """Saturating-efficiency parameters with initial size.

    Scaled variables: s0 = S0 / C and b = C / D. Efficiencies stay in (0, 1]
    exactly when b (1 + s0) >= 1, i.e. D <= C + S0, which mm_lambda checks here.
    """

    C: float
    D: float
    S0: int

    def __post_init__(self) -> None:
        mm_lambda(self.S0, self.C, self.D)
        if not (math.isfinite(self.b) and math.isfinite(self.s0)):
            raise ValueError(
                f"C = {self.C}, D = {self.D} and S0 = {self.S0} give b = C/D = {self.b} "
                f"and s0 = S0/C = {self.s0}; both must be finite"
            )

    @property
    def s0(self) -> float:
        return self.S0 / self.C

    @property
    def b(self) -> float:
        return self.C / self.D

    def as_schedule(self) -> EfficiencySchedule:
        return build_schedule(mm_C=self.C, mm_D=self.D)


@dataclass(frozen=True)
class WBounds:
    """Deterministic envelopes for the random correction sum w_n."""

    n: int
    lower: float
    w_plus: float
    w_star: float | None
    upper: float


def w_bounds(params: MMParams, n: int) -> WBounds:
    """Envelopes for w_n = sum of alpha_k along a saturating schedule.

    The lower envelope is log(1 + n / (1 + b(1 + s0))). Two upper envelopes
    share the prefactor 2 + (2b - 1)/s0: w_plus always holds, and the
    sharper w_star needs b >= 1. The reported upper bound is their minimum.
    """
    if n < 0:
        raise ValueError("cycle count must be nonnegative")
    s0, b = params.s0, params.b
    lower = math.log(1.0 + n / (1.0 + b * (1.0 + s0)))
    pref = 2.0 + (2.0 * b - 1.0) / s0
    w_plus = pref * math.log(1.0 + n * s0 / (2.0 + s0))
    w_star = None
    if b >= 1.0:
        w_star = pref * math.log(1.0 + n * s0 / (2.0 * b * (1.0 + s0) ** 2))
    upper = w_plus if w_star is None else min(w_plus, w_star)
    return WBounds(n=n, lower=lower, w_plus=w_plus, w_star=w_star, upper=upper)


def exact_w_mean(params: MMParams, n: int) -> float:
    """E[w_n] from the exact size laws of S_0..S_{n-1}.

    alpha_k = D/(C + D + S_{k-1}) is a function of the size, so E[w_n] sums
    D E[1/(S_{k-1} + C + D)] over k, one term per law as ``size_laws``
    yields it; its banded program drops the lightest ends of each law and
    cuts its rows, so, as alpha_k < 1, the sum is short by at most the sum of
    their ``tail_mass`` bounds (k 1e-17 for the law of S_k). A size support
    past 2,000,000 sizes raises ValueError.
    """
    if n < 0:
        raise ValueError("cycle count must be nonnegative")
    laws = size_laws(params.as_schedule(), params.S0, n - 1) if n else []
    return sum(params.D * law.harmonic_moment(params.C + params.D) for law in laws)


def random_efficiency_envelope(
    params: MMParams, law: MutationLaw, n: int
) -> tuple[float, float]:
    """Bracket E(t) under a saturating schedule.

    The sampled mean obeys mu (w_n - V) <= E(t | schedule) <= mu w_n with V
    the uniform correction constant (3/2 for a single founder, 1/(S0 - 1)
    otherwise); averaging over the random schedule and inserting the w_n
    envelopes gives deterministic bounds. The lower end is not clamped at 0.
    """
    wb = w_bounds(params, n)
    return law.mu * (wb.lower - _uniform_V(params.S0)), law.mu * wb.upper
