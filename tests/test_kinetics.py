"""Saturation-kinetics growth bounds."""

import math

import numpy as np
import pytest

from branchpcr.kinetics import (
    MMParams,
    exact_w_mean,
    random_efficiency_envelope,
    w_bounds,
)
from branchpcr.moments import poisson_law
from branchpcr.schedule import mm_lambda
from branchpcr.simulator import ProcessSpec, simulate, simulate_batch
from test_moments import banded_record


def test_params_validation():
    with pytest.raises(ValueError):
        MMParams(C=0.0, D=10.0, S0=1)
    with pytest.raises(ValueError):
        MMParams(C=10.0, D=0.0, S0=1)
    with pytest.raises(ValueError):
        MMParams(C=10.0, D=5.0, S0=0)
    with pytest.raises(ValueError):
        MMParams(C=10.0, D=12.0, S0=1)  # first-cycle efficiency above one
    with pytest.raises(ValueError, match="must be finite"):
        MMParams(C=1e300, D=1e-300, S0=1)  # b = C/D overflows
    with pytest.raises(ValueError, match="must be finite"):
        MMParams(C=1e-310, D=1e-310, S0=1)  # s0 = S0/C overflows
    p = MMParams(C=1000.0, D=1000.0, S0=1000)
    assert p.b == pytest.approx(1.0)
    assert p.s0 == pytest.approx(1.0)


def test_as_schedule_round_trip():
    p = MMParams(C=1000.0, D=800.0, S0=5)
    sched = p.as_schedule()
    assert sched.kind == "michaelis_menten"
    assert mm_lambda(5, p.C, p.D) == pytest.approx(800.0 / 1005.0)


def test_balanced_reference_values():
    p = MMParams(C=1000.0, D=1000.0, S0=1000)
    w = w_bounds(p, 10)
    assert w.lower == pytest.approx(math.log(13.0 / 3.0), rel=1e-15)
    assert w.lower == pytest.approx(1.4663370687934272, rel=1e-15)
    assert w.w_star == pytest.approx(3.0 * math.log(2.25), rel=1e-15)
    assert w.w_star == pytest.approx(2.4327906486489863, rel=1e-15)
    assert w.upper == min(w.w_plus, w.w_star)
    assert w.lower <= w.upper


def test_star_requires_excess_capacity():
    # b = C/D < 1 drops the sharper log bound
    p = MMParams(C=500.0, D=1000.0, S0=600)
    w = w_bounds(p, 8)
    assert w.w_star is None
    assert w.upper == w.w_plus


def test_near_balanced_single_founder():
    p = MMParams(C=1000.0, D=1001.0, S0=1)
    w = w_bounds(p, 10)
    assert p.b < 1.0
    assert w.w_star is None
    assert w.lower == pytest.approx(1.791759469228055, rel=1e-13)
    assert w.upper == pytest.approx(4.985065149068811, rel=1e-13)


def test_cycle_count_edges():
    p = MMParams(C=1000.0, D=1000.0, S0=10)
    w0 = w_bounds(p, 0)
    assert w0.lower == 0.0 and w0.upper == 0.0
    with pytest.raises(ValueError):
        w_bounds(p, -1)


@pytest.mark.parametrize("b", [1.0, 2.0, 10.0])
@pytest.mark.parametrize("s0", [0.01, 0.1, 1.0])
def test_bound_ordering_grid(b, s0):
    # C fixed at 1e4; skip parameterizations that start above full efficiency
    C = 1.0e4
    D = C / b
    S0 = max(1, int(round(s0 * C)))
    if D > C + S0:
        pytest.skip("first-cycle efficiency above one")
    p = MMParams(C=C, D=D, S0=S0)
    for n in (1, 10, 100, 1000):
        w = w_bounds(p, n)
        assert 0.0 <= w.lower <= w.upper + 1e-12
        if w.w_star is not None:
            assert w.upper == min(w.w_plus, w.w_star)


def test_random_efficiency_envelope():
    p = MMParams(C=1000.0, D=1000.0, S0=2)
    law = poisson_law(0.05)
    lo, hi = random_efficiency_envelope(p, law, 10)
    w = w_bounds(p, 10)
    assert lo == pytest.approx(law.mu * (w.lower - 1.0))
    assert hi == pytest.approx(law.mu * w.upper)
    lo1, hi1 = random_efficiency_envelope(MMParams(C=1000.0, D=1000.0, S0=1), law, 10)
    assert lo1 == pytest.approx(law.mu * (w_bounds(
        MMParams(C=1000.0, D=1000.0, S0=1), 10).lower - 1.5))
    zero = random_efficiency_envelope(p, poisson_law(0.0), 10)
    assert zero == (0.0, 0.0)


def test_realized_efficiency_sums_inside_bounds():
    # small Monte Carlo: the realized sum of efficiencies lands in the
    # deterministic bracket and the harmonic interior identities hold
    p = MMParams(C=1000.0, D=1001.0, S0=2)
    n = 10
    w = w_bounds(p, n)
    spec = ProcessSpec(p.as_schedule(), poisson_law(0.05), p.S0)
    reps = 1500
    w_bar = 0.0
    lam_over_s = 0.0
    alpha_over_s = 0.0
    inv_final = 0.0
    for rep in range(reps):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((99, rep))))
        traj = simulate(spec, n, rng)
        lams = traj[-1].realized_lambdas
        w_bar += sum(l / (1.0 + l) for l in lams)
        for k in range(1, n + 1):
            s_prev = traj[k - 1].size
            lam = lams[k - 1]
            lam_over_s += lam / s_prev
            alpha_over_s += lam / (1.0 + lam) / s_prev
        inv_final += 1.0 / traj[-1].size
    w_bar /= reps
    lam_over_s /= reps
    alpha_over_s /= reps
    inv_final /= reps
    assert w.lower <= w_bar <= w.upper
    assert lam_over_s <= 2.0 / p.S0 + 1e-12
    assert 1.0 / p.S0 - inv_final - 0.05 <= alpha_over_s <= 1.0 / (p.S0 - 1) + 1e-12


def test_exact_w_mean_inside_bounds_and_monte_carlo():
    # the exact oracle of the saturating model, C = 10, D = 11, one founder
    params = MMParams(C=10.0, D=11.0, S0=1)
    n = 20
    exact = exact_w_mean(params, n)
    assert exact == pytest.approx(4.2002, abs=5e-5)
    wb = w_bounds(params, n)
    assert wb.lower <= exact <= wb.upper            # [2.398, 6.812]
    assert exact_w_mean(params, 0) == 0.0
    assert exact_w_mean(params, 1) == pytest.approx(11.0 / 22.0)
    # the mean realized sum of alpha over simulated trajectories
    law = poisson_law(0.05)
    spec = ProcessSpec(params.as_schedule(), law, params.S0)
    (batch,) = simulate_batch(spec, n, 4000, 2026, marks=(n,))
    w = np.sum(batch.lambdas / (1.0 + batch.lambdas), axis=1)
    assert abs(w.mean() - exact) <= 4.0 * w.std(ddof=1) / math.sqrt(len(w))
    # and the exact E(t) of one draw, from the tests' banded reference, lies
    # inside its envelope
    lo, hi = random_efficiency_envelope(params, law, n)
    dp, tail = banded_record(params.as_schedule(), law, params.S0, n, 1)
    assert lo <= dp.Et <= hi and tail <= n * 1e-17
