"""Simulation of the duplication process and exact small-instance enumeration.

Populations are stored as counts keyed by an integer mutation count m; a
particle's state is m times ``state_scale``. One increment table,
``_increments(law)``, gives that scale and the probabilities of the lattice
steps a copy takes, for both engines and the limit law
``eta_star_distribution``. Poisson increment laws live on the integer
lattice directly (scale 1). A general (mu, nu) law is realized as the
two-point distribution on {0, a} with a = (nu + mu^2)/mu and atom
probability p = mu^2/(nu + mu^2), which matches both moments. Each cycle
reads its efficiency from ``EfficiencySchedule.efficiency``, draws a
binomial duplication count per occupied class, and splits the copies among
the increments with ``_split``, the one place either engine reads the kind
of law: nothing for a one-entry table, one binomial for a two-point law,
one multinomial for a Poisson law. The cost scales with the number of
occupied classes rather than the population size.

``simulate`` runs one trajectory on a dict of counts. The Monte Carlo engine
(``simulate_batch``, ``monte_carlo_moments``) steps a chunk of up to
``_CHUNK`` = 1024 replicates at once as an int64 (replicates x classes)
count array, with one array-valued draw per cycle. Stream contract: chunk c
(replicates c*1024 .. c*1024 + 1023) draws everything, its trajectories
first and then its sample draws, from Generator(Philox(SeedSequence((seed,
c)))). Results are a pure function of the inputs and bit-identical for any
thread count, since threads only carry whole chunks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._pmf import poisson_table
from .moments import (MAX_POPULATION_CAP, ExactMoments, MomentEnvelope, MutationLaw,
                      _exact_moments)
from .schedule import DerivedSequences, EfficiencySchedule

DEFAULT_POPULATION_CAP = 10**8
_CHUNK = 1024
_PMF_TAIL = 1e-12
_DRAW_CELLS = 1 << 20           # most (class, increment) cells in one increment draw
_ROW_CELLS = 1 << 24            # most such cells of one replicate in one cycle


@dataclass(frozen=True)
class ProcessSpec:
    """A branching instance: efficiency schedule, increment law, initial size."""

    sched: EfficiencySchedule
    law: MutationLaw
    S0: int

    def __post_init__(self) -> None:
        if self.S0 < 1:
            raise ValueError("initial population must be at least 1")
        if not self.law.poisson:
            self.law.two_point_support()     # raises where no two-point law realizes (mu, nu)


@dataclass(frozen=True)
class PopulationState:
    """Population snapshot after ``gen`` cycles."""

    gen: int
    size: int
    states: dict[int, int]
    state_scale: float
    realized_lambdas: tuple[float, ...]

    def values_counts(self) -> tuple[np.ndarray, np.ndarray]:
        keys = np.array(sorted(self.states), dtype=np.int64)
        counts = np.array([self.states[k] for k in keys], dtype=np.int64)
        return keys * self.state_scale, counts


class PopulationCapExceeded(RuntimeError):
    """Raised when a trajectory outgrows the population cap.

    Carries the offending generation and size and the sizes of that
    trajectory at cycles 0..gen-1.
    """

    def __init__(self, gen: int, size: int, sizes: list[int]):
        super().__init__(
            f"population reached {size} at cycle {gen}, above the cap; "
            f"partial trajectory has {len(sizes)} snapshots"
        )
        self.gen = gen
        self.size = size
        self.sizes = sizes


@functools.lru_cache(maxsize=64)
def _increments(law: MutationLaw) -> tuple[float, np.ndarray]:
    """(scale, pmf): a copy's state gains m * scale with probability pmf[m].

    A Poisson law has scale 1 and its table up to the (1 - 1e-12)-quantile,
    renormalized; a two-point law has scale a and pmf (1 - p, p). A law with
    no increments has pmf (1,). Both engines split the copies over the
    table with ``_split``. The table is built once per law (laws are
    frozen, so equal laws share it) and is read-only.
    """
    if law.poisson:
        if law.mu == 0.0:
            pmf = np.ones(1)
        else:
            pmf = poisson_table(law.mu, _PMF_TAIL)
            pmf /= pmf.sum()
        scale = 1.0
    else:
        scale, p = law.two_point_support()
        pmf = np.array([1.0 - p, p]) if p > 0.0 else np.ones(1)
    pmf.flags.writeable = False
    return scale, pmf


def _split(dups, pmf: np.ndarray, poisson: bool, rng: np.random.Generator) -> np.ndarray:
    """How many of ``dups`` copies take each increment of ``pmf``, on a new last axis.

    A one-entry table draws nothing, a Poisson law one multinomial over its
    table, and a two-point law one binomial for the copies that take its atom.
    """
    if len(pmf) == 1:
        return np.asarray(dups)[..., None]
    if poisson:
        return rng.multinomial(dups, pmf)
    hits = rng.binomial(dups, pmf[1])
    return np.stack((dups - hits, hits), axis=-1)


def simulate(
    spec: ProcessSpec,
    n: int,
    rng: np.random.Generator,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> list[PopulationState]:
    """Run one trajectory for n cycles; snapshots for cycles 0..n.

    Each cycle's efficiency is the schedule's at the current size. Each
    cycle builds a new table, which its snapshot keeps without a copy.
    """
    _check_run(spec, n, 1, population_cap)
    lam_at = spec.sched.efficiency(spec.S0, n)
    scale, pmf = _increments(spec.law)

    table: dict[int, int] = {0: spec.S0}
    size = spec.S0
    realized: tuple[float, ...] = ()
    traj = [PopulationState(0, size, table, scale, realized)]
    for c in range(n):
        lam = lam_at(c, size)
        new: dict[int, int] = {}
        for m in sorted(table):
            count = table[m]
            dups = int(rng.binomial(count, lam))
            new[m] = new.get(m, 0) + count
            if dups == 0:
                continue
            for inc, cnt in enumerate(_split(dups, pmf, spec.law.poisson, rng).tolist()):
                if cnt:
                    new[m + inc] = new.get(m + inc, 0) + cnt
        table = new
        size = sum(table.values())
        realized = realized + (float(lam),)
        if size > population_cap:
            raise PopulationCapExceeded(c + 1, size, [s.size for s in traj])
        traj.append(PopulationState(c + 1, size, table, scale, realized))
    return traj


def draw_sample(state: PopulationState, ell: int, rng: np.random.Generator) -> np.ndarray:
    """ell with-replacement draws of particle states."""
    if ell < 1:
        raise ValueError("sample size must be at least 1")
    values, counts = state.values_counts()
    picks = rng.multinomial(ell, counts / state.size)
    return np.repeat(values, picks)


@dataclass(frozen=True)
class ReplicateBatch:
    """States of a block of replicates after ``gen`` cycles, one row each.

    ``counts[i, m]`` is the number of particles of replicate i that carry m
    increments (state m times ``state_scale``); ``lambdas[i]`` holds the
    efficiencies replicate i realized in cycles 1..gen.
    """

    gen: int
    counts: np.ndarray
    lambdas: np.ndarray
    state_scale: float

    @property
    def sizes(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def values(self) -> np.ndarray:
        return np.arange(self.counts.shape[1]) * self.state_scale

    def sample_means(self, ell: int, rng: np.random.Generator) -> np.ndarray:
        """Mean of ell with-replacement draws of particle states, per row."""
        if ell < 1:
            raise ValueError("sample size must be at least 1")
        picks = rng.multinomial(ell, self.counts / self.sizes[:, None])
        return picks @ self.values() / ell


def _map_chunks(fn, replicates: int, seed: int, threads: int) -> list:
    """fn(rows, rng) on each chunk of at most _CHUNK replicates, in chunk order."""
    chunks = range(-(-replicates // _CHUNK))

    def run(c):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, c))))
        return fn(min(_CHUNK, replicates - c * _CHUNK), rng)

    if threads > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor   # loads logging; only here

        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(run, chunks))
    return [run(c) for c in chunks]


def _widen(a: np.ndarray, width: int) -> np.ndarray:
    """Pad the columns of a 2-D array with zeros up to ``width``."""
    return np.pad(a, ((0, 0), (0, width - a.shape[1])))


def _check_run(spec: ProcessSpec, n: int, replicates: int, population_cap: int) -> None:
    """Argument checks shared by the engine's entry points."""
    if n < 0:
        raise ValueError("cycle count must be nonnegative")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if max(spec.S0, population_cap) > MAX_POPULATION_CAP:
        raise ValueError(f"initial size and population cap must not exceed "
                         f"{MAX_POPULATION_CAP}, the engine's 64-bit limit")
    if population_cap < spec.S0:
        raise ValueError(f"population cap {population_cap} is below the initial size {spec.S0}")


def _run_chunk(
    spec: ProcessSpec,
    n: int,
    rows: int,
    rng: np.random.Generator,
    population_cap: int,
    marks: tuple[int, ...],
) -> list[ReplicateBatch]:
    """Step ``rows`` replicates for n cycles as one count array; a batch per mark.

    Each cycle draws one array binomial for the duplications, then splits
    the copies over the increment table with ``_split`` per row block.
    """
    lam_at = spec.sched.efficiency(spec.S0, n)
    scale, pmf = _increments(spec.law)
    counts = np.full((rows, 1), spec.S0, dtype=np.int64)
    sizes = counts[:, 0]
    history = [sizes]
    lams = np.empty((rows, n))
    batches = []
    for c in range(n + 1):
        if c in marks:
            batches.append(ReplicateBatch(c, counts, lams[:, :c].copy(), scale))
        if c == n:
            break
        lam = lam_at(c, sizes[:, None])  # one float, or one per row
        lams[:, c:c + 1] = lam
        dups = rng.binomial(counts, lam)
        width = counts.shape[1]
        if width * len(pmf) > _ROW_CELLS:
            raise ValueError(f"{width} occupied classes times an increment table of "
                             f"{len(pmf)} entries exceed {_ROW_CELLS} cells per replicate")
        new = np.zeros((rows, width + len(pmf) - 1), dtype=np.int64)
        new[:, :width] = counts
        # row blocks bound the (rows, width, len(pmf)) draw array; the
        # stream is consumed cell by cell, so the blocking leaves it unchanged
        step = max(1, _DRAW_CELLS // (width * len(pmf)))
        for lo in range(0, rows, step):
            draws = _split(dups[lo:lo + step], pmf, spec.law.poisson, rng)
            for inc in range(len(pmf)):
                new[lo:lo + step, inc:inc + width] += draws[:, :, inc]
        counts = new[:, :np.flatnonzero(new.any(axis=0))[-1] + 1]
        sizes = sizes + dups.sum(axis=1)
        over = np.flatnonzero(sizes > population_cap)
        if over.size:
            i = int(over[0])
            raise PopulationCapExceeded(c + 1, int(sizes[i]), [int(h[i]) for h in history])
        history.append(sizes)
    return batches


def simulate_batch(
    spec: ProcessSpec,
    n: int,
    replicates: int,
    seed: int,
    marks: tuple[int, ...] | None = None,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> list[ReplicateBatch]:
    """Run ``replicates`` trajectories for n cycles; one batch per cycle mark.

    ``marks`` defaults to the final cycle. Row r of every batch is replicate
    r; chunk c of the replicates runs on Generator(Philox(SeedSequence((seed,
    c)))), the streams ``monte_carlo_moments`` uses for its trajectories.
    """
    _check_run(spec, n, replicates, population_cap)
    marks = (n,) if marks is None else tuple(marks)
    if any(not 0 <= m <= n for m in marks) or list(marks) != sorted(set(marks)):
        raise ValueError(f"cycle marks must increase within 0..{n}, got {marks}")
    chunks = _map_chunks(
        lambda rows, rng: _run_chunk(spec, n, rows, rng, population_cap, marks),
        replicates, seed, 1)
    out = []
    for j, m in enumerate(marks):
        parts = [chunk[j] for chunk in chunks]
        width = max(b.counts.shape[1] for b in parts)
        counts = np.concatenate([_widen(b.counts, width) for b in parts])
        lambdas = np.concatenate([b.lambdas for b in parts])
        out.append(ReplicateBatch(m, counts, lambdas, parts[0].state_scale))
    return out


@dataclass(frozen=True)
class MonteCarloMoments:
    """Replicate-averaged statistics with standard errors.

    ``peak_population`` and ``occupied_classes`` are maxima over replicates
    and cycles; ``cap_headroom`` is the population cap over the peak.
    """

    replicates: int
    n: int
    ell: int
    t_mean: float
    t_se: float
    t_var: float
    t_var_se: float
    M_mean: float
    M_se: float
    M_var: float
    M_var_se: float
    D_mean: float
    size_mean: float
    size_se: float
    martingale_mean: float
    martingale_se: float
    peak_population: int
    occupied_classes: int
    cap_headroom: float
    t_values: np.ndarray            # the sampled mean t of each replicate
    eta_hist: dict[int, float] | None = None
    eta_hist_sd: dict[int, float] | None = None


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    r = len(x)
    m = float(np.mean(x))
    if r < 2:
        return m, 0.0
    return m, float(np.std(x, ddof=1) / np.sqrt(r))


def _var_se(x: np.ndarray) -> tuple[float, float]:
    """Sample variance and its large-sample standard error (via 4th moment)."""
    r = len(x)
    if r < 2:
        return 0.0, 0.0
    m = float(np.mean(x))
    d = x - m
    s2 = float(np.sum(d * d) / (r - 1))
    m4 = float(np.mean(d**4))
    return s2, float(np.sqrt(max(m4 - s2 * s2 * (r - 3) / (r - 1), 0.0) / r))


def _chunk_stats(batch: ReplicateBatch, ell: int, rng: np.random.Generator,
                 histogram: bool) -> dict:
    """Row reductions of one chunk's final batch, the sampled means drawn from rng."""
    counts = batch.counts
    sizes = batch.sizes
    frac = counts / sizes[:, None]
    values = batch.values()
    M = frac @ values
    dev = values[None, :] - M[:, None]
    sq = frac * dev * dev
    out = {
        "t": batch.sample_means(ell, rng),
        "M": M,
        "D": sq.sum(axis=1),
        "mu3": (sq * dev).sum(axis=1),
        "mu4": (sq * dev * dev).sum(axis=1),
        "size": sizes.astype(float),
        "mart": np.prod(1.0 / (1.0 + batch.lambdas), axis=1) * sizes,
        "occupied": int((counts > 0).sum(axis=1).max()),
    }
    if histogram:
        out["hist"] = np.stack([frac.sum(axis=0), (frac * frac).sum(axis=0)])
    return out


def _sample_var_se(M: np.ndarray, D: np.ndarray, mu3: np.ndarray, mu4: np.ndarray,
                   ell: int) -> float:
    """Standard error of the sample variance of t, from the replicates' state laws.

    A sampled mean t is ell draws from its replicate's states, whose mean M,
    variance D and third and fourth central moments are known exactly. The
    variance and fourth central moment of t that enter the large-sample
    error are taken as their expectations given each replicate's states
    (Rao-Blackwell), not as moments of the drawn t. The drawn t of few
    replicates often miss the upper tail, and then understate both the
    variance and its error.
    """
    r = len(M)
    if r < 2:
        return 0.0
    d = M - M.mean()
    var = float(np.sum(d * d) / (r - 1) + np.mean(D) / ell)
    m4 = float(np.mean(d**4 + 6.0 * d * d * D / ell + 4.0 * d * mu3 / ell**2
                       + (mu4 + 3.0 * (ell - 1) * D * D) / ell**3))
    return float(np.sqrt(max(m4 - var * var * (r - 3) / (r - 1), 0.0) / r))


def monte_carlo_moments(
    spec: ProcessSpec,
    n: int,
    ell: int,
    replicates: int,
    seed: int,
    threads: int = 1,
    collect_histogram: bool = False,
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> MonteCarloMoments:
    """Replicate the process and aggregate sample statistics.

    Chunk c of the replicates runs its trajectories and then its sample draws
    on Generator(Philox(SeedSequence((seed, c)))), so the result is a pure
    function of (spec, n, ell, replicates, seed) whatever ``threads`` is.
    """
    _check_run(spec, n, replicates, population_cap)
    if ell < 1:
        raise ValueError("sample size must be at least 1")

    def run(rows, rng):
        final = _run_chunk(spec, n, rows, rng, population_cap, (n,))[0]
        return _chunk_stats(final, ell, rng, collect_histogram)

    chunks = _map_chunks(run, replicates, seed, threads)
    cols = {key: np.concatenate([ch[key] for ch in chunks])
            for key in ("t", "M", "D", "mu3", "mu4", "size", "mart")}
    eta_hist = eta_hist_sd = None
    if collect_histogram:
        width = max(ch["hist"].shape[1] for ch in chunks)
        s1, s2 = sum(_widen(ch["hist"], width) for ch in chunks)
        R = replicates
        var = (s2 - s1 * s1 / R) / (R - 1) if R > 1 else np.zeros(width)
        seen = np.flatnonzero(s1 > 0)
        eta_hist = {int(m): float(s1[m] / R) for m in seen}
        eta_hist_sd = {int(m): float(np.sqrt(max(var[m], 0.0))) for m in seen}

    t = cols["t"]
    t_mean, t_se = _mean_se(t)
    t_var = float(np.var(t, ddof=1)) if replicates > 1 else 0.0
    t_var_se = _sample_var_se(cols["M"], cols["D"], cols["mu3"], cols["mu4"], ell)
    M_mean, M_se = _mean_se(cols["M"])
    M_var, M_var_se = _var_se(cols["M"])
    D_mean = float(np.mean(cols["D"]))
    size_mean, size_se = _mean_se(cols["size"])
    mart_mean, mart_se = _mean_se(cols["mart"])
    peak = int(cols["size"].max())
    return MonteCarloMoments(
        replicates=replicates, n=n, ell=ell,
        t_mean=t_mean, t_se=t_se, t_var=t_var, t_var_se=t_var_se,
        M_mean=M_mean, M_se=M_se, M_var=M_var, M_var_se=M_var_se,
        D_mean=D_mean,
        size_mean=size_mean, size_se=size_se,
        martingale_mean=mart_mean, martingale_se=mart_se,
        peak_population=peak,
        occupied_classes=max(ch["occupied"] for ch in chunks),
        cap_headroom=population_cap / peak, t_values=t,
        eta_hist=eta_hist, eta_hist_sd=eta_hist_sd,
    )


def eta_star_distribution(
    seqs: DerivedSequences,
    law: MutationLaw,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Limit law of a sampled state: sum over cycles of alpha_k-thinned increments.

    Returns (values, probs) on the increment lattice of the simulators. The
    mean equals mu W_n up to the truncation of the Poisson table.
    """
    scale, inc = _increments(law)
    dist = np.array([1.0])
    for a in seqs.alpha[:n]:
        step = a * inc
        step[0] += 1.0 - a
        dist = np.convolve(dist, step)
    return np.arange(len(dist)) * scale, dist


def envelope_checks(
    mc: MonteCarloMoments, env: MomentEnvelope, seqs: DerivedSequences, law: MutationLaw
) -> tuple[dict[str, str], dict | None]:
    """Monte Carlo moments against an envelope, at 4 standard errors.

    Returns the flags of E(t) and, with two replicates or more, of V(t) and
    the upper bound on R_n; and, when ``mc`` pooled a histogram, the total
    variation distance between it and the limit law eta*, with its Monte
    Carlo error and the check against ``env.TV_hi`` (else None).
    """
    flags = {
        "Et": "pass" if env.Et_lo - 4 * mc.t_se <= mc.t_mean <= env.Et_hi + 4 * mc.t_se
        else "fail",
    }
    if mc.replicates >= 2:
        flags["Vt"] = (
            "pass" if env.Vt_lo - 4 * mc.t_var_se <= mc.t_var <= env.Vt_hi + 4 * mc.t_var_se
            else "fail"
        )
        flags["Rn"] = "pass" if mc.M_var <= env.Rn_hi + 4 * mc.M_var_se else "fail"
    if mc.eta_hist is None:
        return flags, None
    values, probs = eta_star_distribution(seqs, law, mc.n)
    support = {int(v) for v in values} | set(mc.eta_hist)
    tv = 0.5 * sum(
        abs(mc.eta_hist.get(m, 0.0) - (probs[m] if 0 <= m < len(probs) else 0.0))
        for m in support
    )
    mc_err = 0.5 * sum(mc.eta_hist_sd.values()) / math.sqrt(mc.replicates)
    return flags, {
        "distance": tv, "mc_error": mc_err, "bound": env.TV_hi,
        "check": "pass" if tv <= env.TV_hi + 4 * mc_err else "fail",
    }


def _single_tree_outcomes(lam: np.ndarray, c: int, n: int, memo: dict) -> dict:
    """Distribution of (leaves, sum of depths, sum of subtree sizes squared,
    sum of squared depths) for one particle alive at cycle c, run to cycle n."""
    if c == n:
        return {(1, 0, 0, 0): 1.0}
    if c in memo:
        return memo[c]
    base = _single_tree_outcomes(lam, c + 1, n, memo)
    L = lam[c]
    out: dict = {}
    for key, prob in base.items():
        out[key] = out.get(key, 0.0) + (1.0 - L) * prob
    for (s1, a1, b1, q1), p1 in base.items():
        for (s2, a2, b2, q2), p2 in base.items():
            key = (s1 + s2, a1 + a2 + s2, b1 + b2 + s2 * s2, q1 + q2 + 2 * a2 + s2)
            out[key] = out.get(key, 0.0) + L * p1 * p2
    memo[c] = out
    return out


def enumerate_tiny(
    sched: EfficiencySchedule,
    law: MutationLaw,
    S0: int,
    n: int,
    ell: int = 1,
) -> ExactMoments:
    """Exhaustive genealogy enumeration for S0 <= 2 and n <= 4.

    Conditional on a tree pattern, the increments on the edges are iid, so
    every moment is a polynomial in (mu, nu) with combinatorial coefficients
    read off the pattern. The two sums of a pattern that are not (leaves,
    depth sum) enter those polynomials linearly, so one tree's law collapses
    to (leaves, depth sum) -> (P, E[b 1], E[q 1]), and a forest of S0
    independent trees is the (S0 - 1)-fold product of that law with itself,
    where the sizes and the depth sums add. Independent of the dynamic
    program in the moments module, which it cross-checks.
    """
    if S0 not in (1, 2):
        raise ValueError("enumeration supports initial sizes 1 and 2")
    if not 0 <= n <= 4:
        raise ValueError("enumeration supports at most 4 cycles")
    if ell < 1:
        raise ValueError("sample size must be at least 1")
    tree: dict[tuple[int, int], tuple[float, float, float]] = {}
    for (s, a, b, q), p in _single_tree_outcomes(sched.prefix(n), 0, n, {}).items():
        P, Pb, Pq = tree.get((s, a), (0.0, 0.0, 0.0))
        tree[s, a] = (P + p, Pb + p * b, Pq + p * q)
    forest = tree
    for _ in range(S0 - 1):
        grown: dict[tuple[int, int], tuple[float, float, float]] = {}
        for (s1, a1), (p1, pb1, pq1) in forest.items():
            for (s2, a2), (p2, pb2, pq2) in tree.items():
                # E[b_tot 1] and E[q_tot 1] over the product law
                P, Pb, Pq = grown.get((s1 + s2, a1 + a2), (0.0, 0.0, 0.0))
                grown[s1 + s2, a1 + a2] = (P + p1 * p2, Pb + (pb1 * p2 + p1 * pb2),
                                           Pq + (pq1 * p2 + p1 * pq2))
        forest = grown

    mu, nu = law.mu, law.nu
    mu2 = mu * mu
    m1_v, m2_v, q_v = np.zeros((3, S0 * 2**n - S0 + 1))
    for (s, a), (prob, eb, eq) in forest.items():
        idx = s - S0
        m1_v[idx] += mu * a * prob / s
        m2_v[idx] += (nu * eb + mu2 * a * a * prob) / (s * s)
        q_v[idx] += (nu * a * prob + mu2 * eq) / s
    return _exact_moments(n, S0, ell, float(m1_v.sum()), float(q_v.sum()), float(m2_v.sum()))
