"""Point estimates, correction brackets, and confidence intervals for mu.

The sampled mean t estimates mu W_n, so mu_star = t / W_n is the natural
point estimate. In a finite population t actually centers on
mu (W_n - V_n), which makes mu_star biased low; dividing by the bracketed
relative correction turns the bias into a certified interval. A separate
normal interval handles Poisson increments, and a Chebyshev band gives
distribution-free coverage from the moment envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentEnvelope
from .schedule import DerivedSequences


def _check_t(t: float) -> None:
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("sampled mean must be finite and nonnegative")


def _check_n(seqs: DerivedSequences, n: int) -> None:
    if n < 1:
        raise ValueError("need at least one cycle to estimate")
    if n > seqs.n:
        raise ValueError(f"derived sequences cover {seqs.n} cycles, got n = {n}")


def _W_n(seqs: DerivedSequences, n: int) -> float:
    """W_n, the divisor of every estimate; zero only if no cycle duplicates."""
    W = float(seqs.W[n])
    if W == 0.0:
        raise ValueError("W_n = 0: no cycle duplicates, so t carries no information on mu")
    return W


def point_estimate(t: float, seqs: DerivedSequences, n: int) -> float:
    """mu_star = t / W_n, the infinite-population estimate."""
    _check_t(t)
    _check_n(seqs, n)
    return t / _W_n(seqs, n)


def finite_population_bracket(
    t: float, seqs: DerivedSequences, S0: int, n: int, strict: bool = False
) -> tuple[float, float]:
    """Certified interval for mu once the finite-size bias is accounted for.

    Divides mu_star by 1 - rho with rho the relative correction V_n / W_n,
    bracketed by v_n/(S0+1) on the low side and v''_n/(S0+1) on the high
    side. ``strict`` additionally intersects the upper end with the
    v_n/(S0-1) route, which needs at least two founders. Ends degenerate to
    +inf when a denominator is not positive (only for extreme schedules).
    """
    _check_t(t)
    _check_n(seqs, n)
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    if strict and S0 < 2:
        raise ValueError("the strict upper route needs at least two founders")
    W = _W_n(seqs, n)
    mu_star = t / W
    r = float(seqs.v[n]) / W
    rpp = float(seqs.vpp[n]) / W
    den_lo = 1.0 - r / (S0 + 1)
    den_hi = 1.0 - rpp / (S0 + 1)
    lo = mu_star / den_lo if den_lo > 0.0 else math.inf
    hi = mu_star / den_hi if den_hi > 0.0 else math.inf
    if strict:
        den_s = 1.0 - r / (S0 - 1)
        if den_s > 0.0:
            hi = min(hi, mu_star / den_s)
    return lo, hi


@dataclass(frozen=True)
class CorrectionRatios:
    """Relative corrections and the resulting bracket multipliers."""

    n: int
    S0: int
    r: float
    rpp: float
    lo_multiplier: float
    hi_multiplier: float


def correction_ratio_report(seqs: DerivedSequences, S0: int, n: int) -> CorrectionRatios:
    """How much the finite-size correction can stretch mu_star."""
    _check_n(seqs, n)
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    W = _W_n(seqs, n)
    r = float(seqs.v[n]) / W
    rpp = float(seqs.vpp[n]) / W
    den_lo = 1.0 - r / (S0 + 1)
    den_hi = 1.0 - rpp / (S0 + 1)
    return CorrectionRatios(
        n=n, S0=S0, r=r, rpp=rpp,
        lo_multiplier=1.0 / den_lo if den_lo > 0.0 else math.inf,
        hi_multiplier=1.0 / den_hi if den_hi > 0.0 else math.inf,
    )


@dataclass(frozen=True)
class NegligibilityReport:
    """Is the finite-size correction ignorable at the working precision?"""

    lambda_min: float
    effective_mass: float     # S0 * n * lambda_min
    refined_mass: float       # S0 * sum of lambda_k
    relative_error: float     # 2 / effective_mass
    negligible: bool          # relative_error <= 1%


def negligibility(seqs: DerivedSequences, S0: int, n: int) -> NegligibilityReport:
    """Crude test: corrections are below 1% once S0 n lambda_min >= 200."""
    _check_n(seqs, n)
    if S0 < 1:
        raise ValueError("initial population must be at least 1")
    lam = seqs.lam[:n]
    lam_min = float(np.min(lam))
    mass = S0 * n * lam_min
    rel = 2.0 / mass if mass > 0.0 else math.inf
    return NegligibilityReport(
        lambda_min=lam_min,
        effective_mass=mass,
        refined_mass=S0 * float(np.sum(lam)),
        relative_error=rel,
        negligible=rel <= 0.01,
    )


def chebyshev_interval(env: MomentEnvelope, z: float) -> tuple[float, float]:
    """Band that contains the sampled mean with probability at least 1 - 1/z^2."""
    if not 0.0 < z < math.inf:
        raise ValueError("z must be positive and finite")
    half = z * math.sqrt(env.Vt_hi)
    return env.Et_lo - half, env.Et_hi + half


@dataclass(frozen=True)
class PoissonInterval:
    """Normal-approximation interval for Poisson increments."""

    mu_star: float
    sigma_star: float
    sigma_naive: float
    lo: float
    hi: float
    small_mu_lo: float
    small_mu_hi: float


def poisson_interval(
    t: float, seqs: DerivedSequences, n: int, ell: int, z: float
) -> PoissonInterval:
    """Interval mu_star +- z sigma_star / W_n for Poisson increments.

    sigma_star^2 = (t + t^2 W'_n / W_n^2) / ell plugs the point estimate into
    the infinite-population variance. sigma_naive drops the W' term (pure
    Poisson noise). The small-mu interval mu_star (1 +- z / sqrt(t ell))
    is the leading-order simplification; it degenerates to a point at t = 0.
    """
    _check_t(t)
    _check_n(seqs, n)
    if ell < 1:
        raise ValueError("sample size must be at least 1")
    if not 0.0 < z < math.inf:
        raise ValueError("z must be positive and finite")
    W = _W_n(seqs, n)
    Wp = float(seqs.Wp[n])
    mu_star = t / W
    # mu_star^2 W'_n, not t^2 W'_n / W_n^2: W_n^2 underflows at tiny efficiencies
    sigma_star = math.sqrt((t + mu_star * mu_star * Wp) / ell)
    sigma_naive = math.sqrt(t / ell)
    half = z * sigma_star / W
    if t > 0.0:
        rel = z / math.sqrt(t * ell)
        small_lo, small_hi = mu_star * (1.0 - rel), mu_star * (1.0 + rel)
    else:
        small_lo = small_hi = 0.0
    return PoissonInterval(
        mu_star=mu_star,
        sigma_star=sigma_star,
        sigma_naive=sigma_naive,
        lo=mu_star - half,
        hi=mu_star + half,
        small_mu_lo=small_lo,
        small_mu_hi=small_hi,
    )


@dataclass(frozen=True)
class SampleSizeGuidance:
    """Initial copy numbers that make the finite-size correction ignorable."""

    target: float
    lambda_min: float
    sum_lambda: float
    S0_crude: int      # from S0 n lambda_min >= 2 / target
    S0_refined: int    # from S0 sum(lambda) >= 2 / target


def sample_size_guidance(
    seqs: DerivedSequences, n: int, target: float = 0.01
) -> SampleSizeGuidance:
    """Smallest S0 keeping the relative correction at or below ``target``."""
    _check_n(seqs, n)
    if not 0.0 < target < 1.0:
        raise ValueError("target relative error must be in (0, 1)")
    lam = seqs.lam[:n]
    lam_min = float(np.min(lam))
    sum_lam = float(np.sum(lam))
    crude = math.inf if lam_min == 0.0 else math.ceil(2.0 / (target * n * lam_min))
    refined = math.inf if sum_lam == 0.0 else math.ceil(2.0 / (target * sum_lam))
    return SampleSizeGuidance(
        target=target,
        lambda_min=lam_min,
        sum_lambda=sum_lam,
        S0_crude=crude,
        S0_refined=refined,
    )


@dataclass(frozen=True)
class EstimateReport:
    """Everything the command-line estimate prints."""

    t: float
    n: int
    S0: int
    ell: int
    z: float
    mu_star: float
    bracket_lo: float
    bracket_hi: float
    ci_lo: float
    ci_hi: float
    sigma_star: float
    sigma_naive: float
    small_mu_lo: float
    small_mu_hi: float
    negligibility: NegligibilityReport

    def text(self) -> str:
        """Human-readable summary, rounded to 5 decimals."""
        f = lambda x: f"{x:.5f}"  # noqa: E731
        lines = [
            f"cycles n = {self.n}, founders S0 = {self.S0}, sample ell = {self.ell}",
            f"point estimate mu* = {f(self.mu_star)}",
            f"finite-size bracket [{f(self.bracket_lo)}, {f(self.bracket_hi)}]",
            f"normal interval (z = {self.z:g}) [{f(self.ci_lo)}, {f(self.ci_hi)}]",
            f"sigma* = {f(self.sigma_star)} (naive {f(self.sigma_naive)})",
            f"small-mu interval [{f(self.small_mu_lo)}, {f(self.small_mu_hi)}]",
            "finite-size correction "
            + ("negligible" if self.negligibility.negligible else "NOT negligible")
            + f" (relative error {self.negligibility.relative_error:.5g})",
        ]
        return "\n".join(lines)


def estimate_report(
    t: float,
    seqs: DerivedSequences,
    S0: int,
    n: int,
    ell: int,
    z: float,
    strict: bool = False,
) -> EstimateReport:
    """Assemble the full estimation report for one observed sample mean."""
    mu_star = point_estimate(t, seqs, n)
    lo, hi = finite_population_bracket(t, seqs, S0, n, strict=strict)
    pi = poisson_interval(t, seqs, n, ell, z)
    neg = negligibility(seqs, S0, n)
    return EstimateReport(
        t=t, n=n, S0=S0, ell=ell, z=z,
        mu_star=mu_star,
        bracket_lo=lo, bracket_hi=hi,
        ci_lo=pi.lo, ci_hi=pi.hi,
        sigma_star=pi.sigma_star, sigma_naive=pi.sigma_naive,
        small_mu_lo=pi.small_mu_lo, small_mu_hi=pi.small_mu_hi,
        negligibility=neg,
    )
