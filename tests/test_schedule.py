"""Schedule validation and the exactness of the derived sequences."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from branchpcr.schedule import (
    build_schedule,
    derived_sequences,
    gamma_sequence,
    mm_lambda,
)

# Three-plateau 30-cycle reference schedule used across the test suite.
REF_LAMBDAS = [0.872] * 20 + [0.743] * 5 + [0.146] * 5

schedules = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=32
)


def test_build_schedule_deterministic():
    sched = build_schedule([0.5, 1.0, 0.0])
    assert sched.kind == "deterministic"
    assert sched.lambdas == (0.5, 1.0, 0.0)
    np.testing.assert_array_equal(sched.prefix(2), [0.5, 1.0])


def test_build_schedule_michaelis_menten():
    sched = build_schedule(mm_C=1000.0, mm_D=500.0)
    assert sched.kind == "michaelis_menten"
    with pytest.raises(ValueError):
        sched.prefix(1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lambdas=[]),
        dict(lambdas=[1.2]),
        dict(lambdas=[-0.1]),
        dict(lambdas=[float("nan")]),
        dict(lambdas=[0.5], mm_C=1.0, mm_D=1.0),
        dict(),
        dict(mm_C=1.0),
        dict(mm_C=0.0, mm_D=1.0),
        dict(mm_C=1.0, mm_D=-2.0),
    ],
)
def test_build_schedule_rejects(kwargs):
    with pytest.raises(ValueError):
        build_schedule(**kwargs)


def test_prefix_beyond_schedule_length():
    with pytest.raises(ValueError):
        build_schedule([0.5, 0.5]).prefix(3)


def test_mm_lambda_values():
    assert mm_lambda(1, 1000.0, 1001.0) == 1.0
    assert mm_lambda(1001, 1000.0, 1001.0) == pytest.approx(1001.0 / 2001.0)
    with pytest.raises(ValueError):
        mm_lambda(1, 1.0, 3.0)  # D > C + S_prev
    with pytest.raises(ValueError):
        mm_lambda(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mm_lambda(5, -1.0, 1.0)


def test_efficiency_checks_its_inputs_once():
    fixed = build_schedule([0.5, 0.25])
    with pytest.raises(ValueError, match="2 cycles, 3 requested"):
        fixed.efficiency(1, 3)
    saturating = build_schedule(mm_C=1.0, mm_D=3.0)
    with pytest.raises(ValueError, match="exceeds"):  # D > C + S0
        saturating.efficiency(1, 5)
    saturating.efficiency(2, 5)  # D = C + S0 is the boundary, efficiency 1
    for sched in (fixed, saturating):
        with pytest.raises(ValueError, match="initial population"):
            sched.efficiency(0, 2)


def test_efficiency_takes_a_size_or_an_array_of_sizes():
    lam_at = build_schedule([0.5, 0.25]).efficiency(3, 2)
    assert lam_at(1, 7) == 0.25
    assert lam_at(0, np.array([3.0, 4.0])) == 0.5  # one float whatever the sizes
    C, D = 1000.0, 1001.0
    lam_at = build_schedule(mm_C=C, mm_D=D).efficiency(1, 50)
    sizes = np.array([[1], [2], [1001]])
    assert lam_at(0, 1) == mm_lambda(1, C, D) == 1.0
    assert lam_at(9, 1001) == mm_lambda(1001, C, D)
    got = lam_at(4, sizes)
    assert got.shape == (3, 1)
    assert got[:, 0].tolist() == [mm_lambda(int(s), C, D) for s in sizes[:, 0]]


def test_gamma_sequence_requires_positive_order():
    with pytest.raises(ValueError):
        gamma_sequence(np.array([0.5]), 0.0)
    with pytest.raises(ValueError):
        gamma_sequence(np.array([0.5]), -3.0)


def test_derived_sequences_all_ones():
    seqs = derived_sequences(build_schedule([1.0, 1.0, 1.0]), 3)
    np.testing.assert_allclose(seqs.alpha, 0.5)
    np.testing.assert_allclose(seqs.gamma, [1.0, 0.5, 0.25, 0.125])
    np.testing.assert_allclose(seqs.gamma_i[2], [1.0, 0.5, 0.25, 0.125])
    np.testing.assert_allclose(seqs.gamma_i[3], [1.0, 2 / 3, 4 / 9, 8 / 27])
    assert seqs.W[3] == pytest.approx(1.5)
    assert seqs.Wp[3] == pytest.approx(0.75)
    # 1 - lambda = 0 kills every correction and remainder term
    np.testing.assert_array_equal(seqs.v, 0.0)
    np.testing.assert_array_equal(seqs.vp, 0.0)
    np.testing.assert_array_equal(seqs.vpp, 0.0)
    np.testing.assert_array_equal(seqs.upp, 0.0)
    assert seqs.u[3] == pytest.approx(0.25 * (1 + 0.5 + 0.25))
    assert seqs.up[3] == pytest.approx(1.75)
    assert seqs.lambda_star[0] == math.inf
    np.testing.assert_array_equal(seqs.lambda_star[1:], 1.0)


def test_derived_sequences_zero_cycles():
    seqs = derived_sequences(build_schedule([0.5]), 0)
    assert seqs.n == 0
    assert len(seqs.lam) == 0
    np.testing.assert_array_equal(seqs.gamma, [1.0])
    np.testing.assert_array_equal(seqs.W, [0.0])
    with pytest.raises(ValueError):
        derived_sequences(build_schedule([0.5]), -1)


def test_reference_schedule_frozen_values():
    seqs = derived_sequences(build_schedule(REF_LAMBDAS), 30)
    # regression pins at full precision
    assert seqs.W[30] == pytest.approx(12.084620244589972, rel=1e-12)
    assert seqs.Wp[30] == pytest.approx(6.755292719171353, rel=1e-12)
    assert seqs.v[30] == pytest.approx(0.03652590230700996, rel=1e-12)
    assert seqs.vp[30] == pytest.approx(0.13675399643171943, rel=1e-12)
    assert seqs.vpp[30] == pytest.approx(0.2053877298755417, rel=1e-12)
    # the rounded table values these were checked against
    assert seqs.W[30] == pytest.approx(12.085, abs=1e-3)
    assert seqs.v[30] == pytest.approx(0.03653, abs=1e-5)
    assert seqs.vpp[30] == pytest.approx(0.20539, abs=1e-5)


@given(schedules)
@settings(max_examples=120, deadline=None)
def test_growth_identities(lams):
    n = len(lams)
    seqs = derived_sequences(build_schedule(lams), n)
    lam = np.asarray(seqs.lam)
    lhs = float(np.sum(lam * seqs.gamma[1:]))
    assert np.isclose(lhs, 1.0 - seqs.gamma[n], rtol=1e-12, atol=1e-12)
    for i in (2, 3):
        g = seqs.gamma_i[i]
        lhs = float(np.sum(lam * g[:-1]))
        assert np.isclose(lhs, i * (1.0 - g[n]), rtol=1e-12, atol=1e-12)


@given(schedules, st.integers(min_value=0, max_value=32))
@settings(max_examples=80, deadline=None)
def test_prefix_exactness(lams, m):
    n = len(lams)
    m = min(m, n)
    full = derived_sequences(build_schedule(lams), n)
    part = derived_sequences(build_schedule(lams), m)
    for name in ("gamma", "W", "Wp", "v", "vp", "vpp", "u", "up", "upp",
                 "u_wide", "up_wide", "upp_wide", "lambda_star"):
        np.testing.assert_array_equal(
            getattr(part, name), getattr(full, name)[: m + 1], err_msg=name
        )
    np.testing.assert_array_equal(part.lam, full.lam[:m])
    for i in (2, 3):
        np.testing.assert_array_equal(part.gamma_i[i], full.gamma_i[i][: m + 1])


@given(schedules)
@settings(max_examples=120, deadline=None)
def test_correction_sum_bounds(lams):
    n = len(lams)
    seqs = derived_sequences(build_schedule(lams), n)
    tol = 1e-12
    assert seqs.v[n] <= 1.0 + tol
    assert seqs.vpp[n] <= 3.0 * (1.0 - seqs.gamma_i[3][n]) + tol
    assert seqs.vpp[n] <= 3.0 + tol
    lam_max = max(lams)
    lam_min = min(lams)
    lower = (1.0 - seqs.gamma[n]) * (1.0 - lam_max) / (1.0 + lam_max) ** 2
    assert seqs.v[n] >= lower - tol
    assert seqs.v[n] <= (1.0 - lam_min) * (1.0 - seqs.gamma[n]) + tol


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_vp_constant_schedule_bound(lam):
    seqs = derived_sequences(build_schedule([lam] * 40), 40)
    assert seqs.vp[40] <= 2.0 * (1.0 - lam) + 1e-12


@given(schedules)
@settings(max_examples=80, deadline=None)
def test_monotone_accumulation(lams):
    n = len(lams)
    seqs = derived_sequences(build_schedule(lams), n)
    for name in ("W", "Wp", "v", "vp", "vpp", "u", "up", "upp",
                 "u_wide", "up_wide", "upp_wide"):
        arr = getattr(seqs, name)
        assert np.all(np.diff(arr) >= -1e-15), name
    assert np.all(np.diff(seqs.gamma) <= 1e-15)


def _upp_brute(lams, gamma):
    n = len(lams)
    lam = [0.0] + list(lams)  # 1-based
    total = 0.0
    for k in range(1, n):
        inner = sum(
            lam[i + 1] * (1.0 - lam[i + 1]) * gamma[i] for i in range(k, n)
        )
        total += lam[k] * inner
    return total


def _upp_wide_brute(lams, g2):
    n = len(lams)
    lam = [0.0] + list(lams)
    total = 0.0
    for k in range(1, n):
        inner = sum(
            lam[i + 1] * (1.0 - lam[i + 1]) * g2[i] for i in range(k, n)
        )
        alpha_k = lam[k] / (1.0 + lam[k])
        total += alpha_k / (1.0 - lam[k] / 2.0) * inner
    return total


@given(schedules)
@settings(max_examples=60, deadline=None)
def test_double_sum_collapse(lams):
    n = len(lams)
    seqs = derived_sequences(build_schedule(lams), n)
    brute = _upp_brute(lams, seqs.gamma)
    assert np.isclose(seqs.upp[n], brute, rtol=1e-12, atol=1e-14)
    brute_w = _upp_wide_brute(lams, seqs.gamma_i[2])
    assert np.isclose(seqs.upp_wide[n], brute_w, rtol=1e-12, atol=1e-14)


# ----- the float sums against the numpy cumulative sums they replaced -----

def numpy_gamma_sequence(lam, order):
    """gamma_sequence as np.cumprod computed it."""
    out = np.empty(len(lam) + 1)
    out[0] = 1.0
    np.cumprod(1.0 - np.asarray(lam, dtype=float) / order, out=out[1:])
    return out


def numpy_derived_sequences(lams, n):
    """Every field of derived_sequences by np.cumsum/np.cumprod, as a dict."""
    lam = np.asarray(lams[:n], dtype=float)
    alpha = lam / (1.0 + lam)
    one_minus = 1.0 - lam
    gamma = np.empty(n + 1)
    gamma[0] = 1.0
    np.cumprod(1.0 / (1.0 + lam), out=gamma[1:])
    g2 = numpy_gamma_sequence(lam, 2.0)
    g3 = numpy_gamma_sequence(lam, 3.0)

    def zero_prefixed_cumsum(terms):
        out = np.empty(n + 1)
        out[0] = 0.0
        np.cumsum(terms, out=out[1:])
        return out

    lambda_star = np.empty(n + 1)
    lambda_star[0] = np.inf
    if n:
        np.minimum.accumulate(lam, out=lambda_star[1:])
    upp = np.zeros(n + 1)
    upp_wide = np.zeros(n + 1)
    if n >= 2:
        Lsum = np.cumsum(lam)
        Csum = np.cumsum(alpha / (1.0 - lam / 2.0))
        inner = lam[1:] * one_minus[1:]
        np.cumsum(inner * gamma[1:-1] * Lsum[:-1], out=upp[2:])
        np.cumsum(inner * g2[1:-1] * Csum[:-1], out=upp_wide[2:])
    return {
        "lam": lam, "alpha": alpha, "gamma": gamma, "gamma2": g2, "gamma3": g3,
        "W": zero_prefixed_cumsum(alpha),
        "Wp": zero_prefixed_cumsum(alpha * (1.0 - alpha)),
        "lambda_star": lambda_star,
        "v": zero_prefixed_cumsum(gamma[:-1] * alpha * one_minus / (1.0 + lam) ** 2),
        "vp": zero_prefixed_cumsum(g2[:-1] * alpha * one_minus),
        "vpp": zero_prefixed_cumsum(g3[:-1] * alpha * one_minus),
        "u": zero_prefixed_cumsum(alpha * (1.0 - alpha) * gamma[:-1]),
        "up": zero_prefixed_cumsum(lam * gamma[:-1]),
        "upp": upp,
        "u_wide": zero_prefixed_cumsum(alpha * (1.0 - alpha) * g2[:-1]),
        "up_wide": zero_prefixed_cumsum(lam * g3[:-1]),
        "upp_wide": upp_wide,
    }


def bits(values):
    return [float.hex(x) for x in values]


edge_schedules = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=40,
)


@given(edge_schedules, st.integers(min_value=0, max_value=40),
       st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=200, deadline=None)
@example([0.0], 0, 2.0)
@example([1.0, 0.0, 1.0], 3, 0.5)
@example([0.0, 0.0], 2, 3.0)
def test_float_sums_equal_the_numpy_reference(lams, m, order):
    n = min(m, len(lams))
    seqs = derived_sequences(build_schedule(lams), n)
    ref = numpy_derived_sequences(lams, n)
    assert seqs.n == n
    got = {name: getattr(seqs, name) for name in ref if not name.startswith("gamma")}
    got.update(gamma=seqs.gamma, gamma2=seqs.gamma_i[2], gamma3=seqs.gamma_i[3])
    for name, want in ref.items():
        assert isinstance(got[name], tuple), name
        # bit for bit, signed zeros included: the same operations in the same order
        assert bits(got[name]) == bits(want.tolist()), name
    want = bits(numpy_gamma_sequence(seqs.lam, order).tolist())
    assert bits(gamma_sequence(seqs.lam, order)) == want
