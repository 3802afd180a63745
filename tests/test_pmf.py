"""The binomial row and Poisson table against scipy and 40-digit mpmath."""

import json
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import stats

from branchpcr._pmf import binom_row, poisson_table

SIZES = (1, 2, 3, 5, 16, 17, 40, 100, 501, 4096, 8192)
LAMBDAS = (1e-9, 0.01, 0.146, 0.5, 0.743, 0.872, 0.99, 1 - 1e-9)
MUS = (0.05, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0)
SIM_TAIL = 1e-12  # the simulator's truncation level


def exact_binom_row(s, lam):
    """Binomial(s, lam) at 40 digits by the ratio recurrence from q^s."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        q = 1 - lam
        p = q**s
        row = [p]
        for j in range(s):
            p = p * (s - j) * lam / ((j + 1) * q)
            row.append(p)
        return row


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("s", SIZES)
def test_binom_row_matches_scipy(s, lam):
    row = binom_row(s, lam)
    ref = stats.binom.pmf(np.arange(s + 1), s, lam)
    # scipy's own value at j = 0 for lam = 1e-9 is off from the 40-digit one
    # by up to 3.1e-15 (s = 5); the row is within 6e-17 of it there
    atol = 4e-15 if lam == 1e-9 else 1e-15
    np.testing.assert_allclose(row, ref, rtol=0, atol=atol)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("s", SIZES)
def test_binom_row_matches_mpmath(s, lam):
    row = binom_row(s, lam)
    exact = exact_binom_row(s, lam)
    worst = 0.0
    for got, want in zip(row, exact):
        if want > 1e-250:
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-13


@pytest.mark.parametrize("s", (0, 1, 7))
def test_binom_row_point_masses(s):
    np.testing.assert_array_equal(binom_row(s, 0.0), np.eye(s + 1)[0])
    np.testing.assert_array_equal(binom_row(s, 1.0), np.eye(s + 1)[s])


@pytest.mark.parametrize("lam", (1e-300, 1e-200, 1e-17, 0.5, 1 - 1e-16))
def test_binom_row_extreme_lambda(lam):
    for s in (1, 2, 50, 3000):
        row = binom_row(s, lam)
        assert np.all(row >= 0.0)
        assert row.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.dot(np.arange(s + 1), row) == pytest.approx(s * lam, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("tail", (SIM_TAIL, 1e-6))
def test_poisson_table_matches_scipy(mu, tail):
    table = poisson_table(mu, tail)
    k_max = int(stats.poisson.ppf(1.0 - tail, mu)) + 1
    assert len(table) == k_max + 1
    ref = stats.poisson.pmf(np.arange(k_max + 1), mu)
    # scipy's own value is off from the 40-digit one by up to 1.06e-15 at mu = 30
    np.testing.assert_allclose(table, ref, rtol=0, atol=2e-15)


@pytest.mark.parametrize("mu", MUS)
def test_poisson_table_matches_mpmath(mu):
    table = poisson_table(mu, SIM_TAIL)
    with mpmath.workdps(40):
        m = mpmath.mpf(mu)
        exact = [mpmath.exp(-m) * m**k / mpmath.factorial(k) for k in range(len(table))]
        worst = max(float(abs(got - want) / want) for got, want in zip(table, exact))
    assert worst <= 2e-15


def test_poisson_table_rejects_bad_tail():
    for tail in (0.0, 1.0, -1e-3):
        with pytest.raises(ValueError):
            poisson_table(1.0, tail)


def test_runtime_loads_no_scipy():
    # `import branchpcr`, then what `python -m branchpcr --help` runs
    probe = (
        "import json, runpy, sys\n"
        "import branchpcr\n"
        "sys.argv = ['branchpcr', '--help']\n"
        "try:\n"
        "    runpy.run_module('branchpcr', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')),"
        " file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stderr.strip().splitlines()[-1]) == []
