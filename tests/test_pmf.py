"""The binomial rows, their bands and the Poisson table against scipy and 40-digit mpmath."""

import hashlib
import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import stats

from branchpcr import _pmf
from branchpcr._pmf import (
    BAND_TAIL, band_limits, binom_cells, binom_row, poisson_table, size_program,
)
from branchpcr.schedule import build_schedule

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


@pytest.mark.parametrize("lam", LAMBDAS + (0.0, 1.0))
def test_band_rows_match_binom_row(lam):
    # all sizes in one call, so rows of very different widths share a matrix
    sizes = np.array((0,) + SIZES)
    lo_f, hi_f, cut = band_limits(sizes, lam)
    j, w = binom_cells(sizes, lam, lo_f, hi_f)
    lo = j[:, 0].astype(int)
    np.testing.assert_array_equal(j, lo_f[:, None] + np.arange(w.shape[1]))
    assert np.all(cut <= BAND_TAIL)
    for i, s in enumerate(sizes):
        row = binom_row(int(s), lam)
        hi = int(hi_f[i])
        band = w[i, : hi - lo[i] + 1]
        assert np.all(w[i, hi - lo[i] + 1 :] == 0.0)
        ref = row[lo[i] : hi + 1]
        big = ref > 1e-250
        np.testing.assert_allclose(band[big], ref[big], rtol=1e-15, atol=0)
        assert np.all(band[~big] <= 1e-249)
        # the mass left out is within Hoeffding's bound
        outside = row[: lo[i]].sum() + row[hi + 1 :].sum()
        assert outside <= cut[i]
        if lam in (0.0, 1.0):
            assert band[int(s * lam) - lo[i]] == 1.0


def test_band_limits():
    s = np.array([0.0, 1.0, 19.0, 20.0, 1000.0, 8192.0])
    for lam in (0.0, 0.3, 1.0):
        lo, hi, cut = band_limits(s, lam)
        assert np.all((0 <= lo) & (lo <= s * lam) & (s * lam <= hi) & (hi <= s))
        assert np.all(cut <= BAND_TAIL)
    # rows up to s = 19 are whole: the cut half-width 4.46 sqrt(s) >= s
    lo, hi, cut = band_limits(s, 0.3)
    whole = (lo == 0) & (hi == s)
    assert np.all(whole[s <= 19]) and not np.any(whole[s >= 1000])
    assert np.all(cut[whole] == 0.0)
    lo, hi, _ = band_limits(np.array([8192.0]), 0.5)
    assert hi[0] - lo[0] + 1 < 820


@pytest.mark.parametrize("lam", (0.0, 1.0))
@pytest.mark.parametrize("s", (5, 1000))
def test_band_point_mass_rows(s, lam):
    # lambda 0 or 1 puts all the mass on s lambda: a one-cell band, cut 0
    lo, hi, cut = band_limits(np.array([float(s)]), lam)
    assert lo[0] == hi[0] == s * lam and cut[0] == 0.0
    j, w = binom_cells(np.array([s]), lam, lo, hi)
    np.testing.assert_array_equal(j, [[s * lam]])
    np.testing.assert_array_equal(w, [[1.0]])
    # among rows that spread, one per row
    lams = np.array([lam, 0.5])
    lo, hi, cut = band_limits(np.array([float(s), float(s)]), lams)
    assert lo[0] == hi[0] == s * lam and cut[0] == 0.0
    assert lo[1] < hi[1]


def test_band_per_row_efficiency():
    s = np.arange(1.0, 400.0)
    lam = 11.0 / (10.0 + s)       # a saturating schedule, D/(C + s)
    lo, hi, _ = band_limits(s, lam)
    w = binom_cells(s, lam, lo, hi)[1]
    lo, hi = lo.astype(int), hi.astype(int)
    for i in (0, 9, 10, 120, 398):
        row = binom_row(int(s[i]), lam[i])
        width = hi[i] - lo[i] + 1
        np.testing.assert_allclose(w[i, :width], row[lo[i] : hi[i] + 1], rtol=1e-15, atol=0)
        assert np.all(w[i, width:] == 0.0)


# (s, lam, tail) -> (shape of w, sum of lo, (row, column, w) cells, sha256 of
# the space-joined float.hex of each row's fsum, fsum of those row sums);
# tail 0 stands for whole rows, the limits (0, s)
BAND_PINS = {
    # the benchmark's last size-program block: S0 = 2, lam = 0.5, n = 11
    "bench": ((np.arange(2.0, 597.0), 0.5, BAND_TAIL / 2), (595, 220), 46030, (
        (0, 0, "0x1.0000000000001p-2"), (297, 110, "0x1.3fd07a2a2a9b4p-15"),
        (594, 109, "0x1.0b9fb038612c3p-5"),
    ), "f4e46d73b27c913f461887819e8c6ba01fe83dbd671a61e07b33db0a9a7efeb0", "0x1.2980000000000p+9"),
    "lam 0.9": ((np.arange(3000.0, 3501.0), 0.9, BAND_TAIL), (501, 529), 1338236, (
        (0, 0, "0x1.b81fb5246c248p-138"), (250, 264, "0x1.460a21c6492bap-6"),
        (500, 264, "0x1.70303f1aed8c3p-6"),
    ), "04f7e61d853e17addf489ec05e7ab048dae69541680a263cb36ebc3442cc9c3b", "0x1.f500000000001p+8"),
    # D/(C + s) with C = 1000, D = 1001: lam = 1 at s = 1
    "saturating": ((np.arange(1.0, 301.0), 1001.0 / (1000.0 + np.arange(1.0, 301.0)), BAND_TAIL / 2),
                   (300, 147), 22365, (
        (0, 0, "0x1.0000000000000p+0"), (150, 73, "0x1.0ee9158073b99p-26"),
        (299, 77, "0x1.bfc8f70c14dfbp-5"),
    ), "68077b1dd6d7711a572683c9f42544e434f22a1cb0eba3f71b4cea7d4d95bc0e", "0x1.2c00000000000p+8"),
    "uncut, mixed": ((np.array([7.0, 7.0, 7.0, 40.0, 40.0, 40.0, 0.0, 1.0, 100.0]),
                      np.array([0.0, 0.3, 1.0, 0.0, 0.3, 1.0, 0.3, 0.3, 0.3]), 0.0), (9, 101), 0, (
        (0, 0, "0x1.0000000000000p+0"), (4, 50, "0x0.0p+0"), (8, 30, "0x1.63777a4efbbe7p-4"),
    ), "6840ad04bc4393d2c4d2800d95ec6f208d959e82d1cba5f04f10cef3968bc055", "0x1.2000000000000p+3"),
}


@pytest.mark.parametrize("name", BAND_PINS)
def test_binom_band_keeps_its_bits(name):
    """The kernel's cells and row sums, to the bit, on four blocks: one per
    tail, one efficiency per block or per row, and rows with lam 0 and 1."""
    (s, lam, tail), shape, lo_sum, cells, digest, total = BAND_PINS[name]
    lo, hi, _ = band_limits(s, lam, tail) if tail else (0.0 * s, s, None)
    j, w = binom_cells(s, lam, lo, hi)
    np.testing.assert_array_equal(j, lo[:, None] + np.arange(w.shape[1]))
    assert (w.shape, int(lo.sum())) == (shape, lo_sum)
    assert [float(w[i, c]).hex() for i, c, _ in cells] == [x for _, _, x in cells]
    sums = [math.fsum(row) for row in w.tolist()]
    assert hashlib.sha256(" ".join(x.hex() for x in sums).encode()).hexdigest() == digest
    assert math.fsum(sums).hex() == total


def seeded_program(S0, lams, law):
    """``size_program`` whose first cycle puts law(j) on size S0 + j.

    Later cycles step the probability and record each block's (s, v).
    """
    seen = []

    def step(s, j, w, v):
        seen.append((s[:, 0].copy(), v[0, :, 0].copy()))
        return (law(j) if len(seen) == 1 else w * v[0],)

    return list(size_program(build_schedule(lams), S0, len(lams), 1, step)), seen


def test_size_program_trims_light_ends(monkeypatch):
    # sizes 10..17; the two lightest leading and trailing sizes each hold at
    # most BAND_TAIL/4 together, the third trailing one tips past it
    p = np.array([1e-18, 1e-18, 0.5, 0.5 - 5e-18, 1e-18, 1e-18, 1e-18, 1e-18])
    # the first cycle's one source, 10, has a whole row onto 10..20
    seed = lambda j: np.pad(p, (0, 3))[j.astype(int)]
    steps, seen = seeded_program(10, [0.5, 0.5], seed)
    (_, _, t0), (first, law, t1), (first2, law2, t2) = steps
    assert t0 == t1 == 0.0 and first == 10
    np.testing.assert_array_equal(law[0], np.concatenate((p, np.zeros(3))))
    assert t2 == p[:2].sum() + p[-2:].sum()
    (s, v), = seen[1:]
    np.testing.assert_array_equal(s, [12, 13, 14, 15])
    np.testing.assert_array_equal(v, p[2:6])
    # rows this short are whole, so the next support is 12 .. 30
    assert (first2, law2.shape[1]) == (12, 19)
    assert np.all(band_limits(s, 0.5, BAND_TAIL / 2)[2] == 0.0)
    monkeypatch.setattr(_pmf, "_SIZE_CAP", 30)
    seeded_program(10, [0.5, 0.5], seed)
    monkeypatch.setattr(_pmf, "_SIZE_CAP", 29)
    with pytest.raises(ValueError, match="size support reaches 30 at cycle 2, above cap 29"):
        seeded_program(10, [0.5, 0.5], seed)


def test_size_program_cuts_long_rows():
    # a uniform law on 100 sizes from 7500 on: long rows, cut at BAND_TAIL/2
    # each, and no light end to drop
    steps, seen = seeded_program(5000, [0.5, 0.3], lambda j: ((2500 <= j) & (j < 2600)) * 0.01)
    (_, law, t1), (_, _, t2) = steps[1:]
    assert np.count_nonzero(law[0]) == 100
    (s, v), = seen[1:]
    np.testing.assert_array_equal(s, np.arange(7500.0, 7600.0))
    np.testing.assert_array_equal(v, np.full(100, 0.01))
    cut = band_limits(s, 0.3, BAND_TAIL / 2)[2]
    assert np.all((0.0 < cut) & (cut <= BAND_TAIL / 2))
    assert t2 == t1 + float(v @ cut)
    assert 0.0 < t2 - t1 <= BAND_TAIL / 2


def test_size_program_decides_bands_once_per_cycle(monkeypatch):
    # one band_limits call per cycle, over all the sizes it keeps, whether
    # the kernel then walks them as one block or as many
    calls, blocks = [], []
    limits = _pmf.band_limits
    monkeypatch.setattr(_pmf, "band_limits", lambda *a: calls.append(1) or limits(*a))

    def step(s, j, w, v):
        blocks.append(1)
        return (w * v[0],)

    budgets = (_pmf._BLOCK_CELLS, 256)
    for sched in (build_schedule([0.5] * 11), build_schedule(mm_C=10.0, mm_D=11.0)):
        laws = []
        for cells in budgets:
            monkeypatch.setattr(_pmf, "_BLOCK_CELLS", cells)
            calls.clear()
            blocks.clear()
            *_, (first, vals, tail) = size_program(sched, 2, 11, 1, step)
            assert len(calls) == 11
            laws.append((len(blocks), first, vals[0], tail))
        (one, *law), (many, *split) = laws
        assert one == 11 < 100 < many
        assert split[0] == law[0]
        np.testing.assert_allclose(split[1], law[1], rtol=1e-13, atol=1e-300)
        assert split[2] == pytest.approx(law[2], rel=1e-13)


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
