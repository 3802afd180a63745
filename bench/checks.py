"""Output checks for the benchmark workloads.

Each check takes program outputs and returns a list of failure messages
(empty when the output is right). The reference values come from plain-Python
recomputations written here, from a second code path of the package that
shares no code with the one under test (the size-and-moment dynamic program
against the simulator, brute-force enumeration against the dynamic program),
or from properties the method must have. Statistical checks allow
``N_SE`` standard errors.
"""

from __future__ import annotations

import json
import math

N_SE = 4.0


def _close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol, relative to max(1, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(b))


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON number {token}")


def parse_strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# -- plain-Python recomputations ------------------------------------------

def schedule_sums(lams: list[float], n: int | None = None) -> dict[str, float]:
    """W_n, gamma_n, v_n and vpp_n of a fixed schedule, straight from the sums.

    alpha_k = lambda_k/(1+lambda_k); gamma_j = prod 1/(1+lambda_k);
    gamma3_j = prod (1 - lambda_k/3); v_n = sum gamma_{k-1} alpha_k
    (1-lambda_k)/(1+lambda_k)^2; vpp_n = sum gamma3_{k-1} alpha_k (1-lambda_k).
    """
    n = len(lams) if n is None else n
    W = v = vpp = 0.0
    gamma = gamma3 = 1.0
    for lam in lams[:n]:
        alpha = lam / (1.0 + lam)
        W += alpha
        v += gamma * alpha * (1.0 - lam) / (1.0 + lam) ** 2
        vpp += gamma3 * alpha * (1.0 - lam)
        gamma /= 1.0 + lam
        gamma3 *= 1.0 - lam / 3.0
    return {"W": W, "gamma": gamma, "v": v, "vpp": vpp}


def mean_size(lams: list[float], S0: int) -> float:
    """E[S_n] = S0 prod (1 + lambda_k)."""
    out = float(S0)
    for lam in lams:
        out *= 1.0 + lam
    return out


def harmonic_H(k: int, lam: float, y: float = 0.0) -> float:
    """E[(k + y)/(k + J + y)] for J ~ Binomial(k, lambda), summed term by term."""
    return sum(math.comb(k, j) * lam**j * (1.0 - lam) ** (k - j) * (k + y) / (k + j + y)
               for j in range(k + 1))


def mm_w_lower(C: float, D: float, S0: int, n: int) -> float:
    """log(1 + n/(1 + b(1 + s0))) with b = C/D and s0 = S0/C."""
    b, s0 = C / D, S0 / C
    return math.log(1.0 + n / (1.0 + b * (1.0 + s0)))


# -- cli-session ----------------------------------------------------------

def check_exit(label: str, code: int, stderr: str = "") -> list[str]:
    if code != 0:
        return [f"{label}: exit {code}: {stderr.strip()[-300:]}"]
    return []


def check_golden(payload: dict) -> list[str]:
    bad = [f"golden {c['name']}: {c['computed']} vs {c['expected']}"
           for c in payload["checks"] if not c["pass"]]
    if payload["all_pass"] is not True or not payload["checks"]:
        bad.append("golden: all_pass is not true")
    return bad


def check_estimate(payload: dict, lams: list[float], t: float) -> list[str]:
    n = len(lams)
    ref = schedule_sums(lams)
    bad = []
    mu_star = t / ref["W"]
    if not _close(payload["mu_star"], mu_star, 1e-12):
        bad.append(f"estimate mu_star {payload['mu_star']} vs t/W_n {mu_star}")
    if payload["n"] != n or not _close(payload["t"], t, 1e-12):
        bad.append("estimate echoes the wrong n or t")
    if not payload["mu_star"] <= payload["bracket_lo"] <= payload["bracket_hi"]:
        bad.append("estimate: mu_star <= bracket_lo <= bracket_hi fails")
    if not payload["ci_lo"] < payload["mu_star"] < payload["ci_hi"]:
        bad.append("estimate: ci_lo < mu_star < ci_hi fails")
    return bad


def check_bounds(payload: dict, lams: list[float]) -> list[str]:
    n = len(lams)
    ref = schedule_sums(lams)
    seq = payload["sequences"]
    bad = []
    for key, name in (("W", "W"), ("gamma", "gamma"), ("v", "v"), ("vpp", "vpp")):
        got = seq[name][n]
        if not _close(got, ref[key], 1e-12):
            bad.append(f"bounds {name}[{n}] {got} vs recomputed {ref[key]}")
    env = payload["envelope"]
    if env is None:
        return bad + ["bounds: no envelope"]
    if not env["Et_lo"] <= env["Et_hi"] <= env["Et_star"]:
        bad.append("bounds: Et_lo <= Et_hi <= Et_star fails")
    return bad


def check_bounds_csv(text: str, payload: dict) -> list[str]:
    """The CSV table's last row carries the JSON sequences to 12 digits."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[-1].split(",")))
    seq = payload["sequences"]
    n = payload["n"]
    bad = []
    if len(lines) != n + 2 or int(row["k"]) != n:
        bad.append(f"bounds csv: {len(lines)} lines for n = {n}")
    for col in ("W", "Wp", "gamma", "v", "vp", "vpp"):
        if not math.isclose(float(row[col]), seq[col][n], rel_tol=1e-11, abs_tol=1e-15):
            bad.append(f"bounds csv {col} {row[col]} vs json {seq[col][n]}")
    return bad


def check_simulate(label: str, payload: dict, tv: bool) -> list[str]:
    bad = []
    if payload["martingale_check"] != "pass":
        bad.append(f"{label}: martingale check fails")
    flags = payload.get("envelope_flags") or {}
    if not flags:
        bad.append(f"{label}: no envelope flags")
    bad += [f"{label}: envelope flag {k} fails" for k, v in flags.items() if v != "pass"]
    if tv and (payload.get("tv") or {}).get("check") != "pass":
        bad.append(f"{label}: TV check fails")
    return bad


def check_property(payload: dict) -> list[str]:
    if payload["count"] != 0 or payload["violations"]:
        return [f"property check: {payload['count']} violations"]
    return []


def check_harmonic_table(payload: dict, k_max: int, lambdas: list[float], y: float) -> list[str]:
    rows = payload["rows"]
    bad = []
    if len(rows) != k_max * len(lambdas):
        bad.append(f"harmonic table: {len(rows)} rows")
    for row in rows:
        k, lam = row["k"], row["lambda"]
        for col, want in (("H", harmonic_H(k, lam)), ("Hy", harmonic_H(k, lam, y))):
            if not _close(row[col], want, 1e-12):
                bad.append(f"harmonic table {col}(k={k}, lam={lam}) {row[col]} vs {want}")
    return bad


def check_mm(payload: dict, C: float, D: float, S0: int, n: int) -> list[str]:
    want = mm_w_lower(C, D, S0, n)
    bad = []
    if not _close(payload["w_lower"], want, 1e-12):
        bad.append(f"mm w_lower {payload['w_lower']} vs {want}")
    if not payload["w_lower"] <= payload["w_upper"]:
        bad.append("mm: w_lower > w_upper")
    return bad


# -- montecarlo -----------------------------------------------------------

def within(value: float, lo: float, hi: float, se: float) -> bool:
    return lo - N_SE * se <= value <= hi + N_SE * se


def check_mc_exact(label: str, mc, exact, S0: int) -> list[str]:
    """Simulated means against the exact size-and-moment dynamic program.

    The variances (t_var, M_var) are not compared: early mutations give both
    a heavy tail, and a sample that misses it understates the variance and
    its large-sample standard error together, so a 4-error test fails on
    some seeds with nothing wrong.
    """
    bad = []
    pairs = (
        ("t_mean", mc.t_mean, mc.t_se, exact.Et),
        ("M_mean", mc.M_mean, mc.M_se, exact.M_eta),
        ("martingale", mc.martingale_mean, mc.martingale_se, float(S0)),
    )
    for name, got, se, want in pairs:
        if not within(got, want, want, se):
            bad.append(f"{label} {name} {got} +- {se} vs exact {want}")
    return bad


def tv_distance(hist: dict[int, float], probs) -> float:
    support = set(hist) | set(range(len(probs)))
    return 0.5 * sum(abs(hist.get(m, 0.0) - (float(probs[m]) if m < len(probs) else 0.0))
                     for m in support)


def check_mc_hist(label: str, mc, probs, v_n: float, S0: int) -> list[str]:
    """Pooled state histogram within v_n/(S0 - 1) of the limit law, in TV."""
    tv = tv_distance(mc.eta_hist, probs)
    mc_err = 0.5 * sum(mc.eta_hist_sd.values()) / math.sqrt(mc.replicates)
    bound = v_n / (S0 - 1)
    if not tv <= bound + N_SE * mc_err:
        return [f"{label} TV {tv} above {bound} + {N_SE} x {mc_err}"]
    return []


def check_mc_reference(label: str, mc, Et_lo: float, Et_hi: float,
                       lams: list[float], S0: int) -> list[str]:
    bad = []
    if not within(mc.t_mean, Et_lo, Et_hi, mc.t_se):
        bad.append(f"{label} t_mean {mc.t_mean} +- {mc.t_se} outside [{Et_lo}, {Et_hi}]")
    size = mean_size(lams, S0)
    if not within(mc.size_mean, size, size, mc.size_se):
        bad.append(f"{label} mean size {mc.size_mean} +- {mc.size_se} vs {size}")
    if not within(mc.martingale_mean, S0, S0, mc.martingale_se):
        bad.append(f"{label} martingale {mc.martingale_mean} vs {S0}")
    return bad


def mean_se(xs: list[float]) -> tuple[float, float]:
    r = len(xs)
    m = sum(xs) / r
    var = sum((x - m) ** 2 for x in xs) / (r - 1)
    return m, math.sqrt(var / r)


def check_mm_marks(label: str, mark: int, w: list[float], ratio: list[float],
                   lower: float, upper: float, V: float) -> list[str]:
    """w-bar inside [lower, upper] and E(t)/mu inside [lower - V, upper]."""
    bad = []
    w_bar, w_se = mean_se(w)
    r_bar, r_se = mean_se(ratio)
    if not within(w_bar, lower, upper, w_se):
        bad.append(f"{label} n={mark}: w {w_bar} +- {w_se} outside [{lower}, {upper}]")
    if not within(r_bar, lower - V, upper, r_se):
        bad.append(f"{label} n={mark}: E(t)/mu {r_bar} +- {r_se} outside "
                   f"[{lower - V}, {upper}]")
    return bad


# -- oracles --------------------------------------------------------------

def check_size_law(sizes, probs, lams: list[float], S0: int) -> list[str]:
    bad = []
    total = float(sum(probs))
    if not abs(total - 1.0) <= 1e-12:
        bad.append(f"size_law mass {total}")
    mean = float(sum(float(s) * float(p) for s, p in zip(sizes, probs)))
    want = mean_size(lams, S0)
    if not _close(mean, want, 1e-12):
        bad.append(f"size_law mean {mean} vs S0 prod(1 + lambda) {want}")
    return bad


def check_harmonic_moments(moments_by_y: dict[float, tuple[float, float, float]]) -> list[str]:
    """E[1/(S_n + y)] inside [lower, upper] for each shift y."""
    return [f"E[1/(S_n + {y})] {m} outside [{lo}, {hi}]"
            for y, (m, lo, hi) in moments_by_y.items()
            if not lo - 1e-12 <= m <= hi + 1e-12]


def check_Vn(Vn: float, lams: list[float], S0: int) -> list[str]:
    ref = schedule_sums(lams)
    lo, hi = ref["v"] / (S0 + 1), ref["vpp"] / (S0 + 1)
    if not lo - 1e-15 <= Vn <= hi + 1e-15:
        return [f"V_n {Vn} outside [v_n/(S0+1), vpp_n/(S0+1)] = [{lo}, {hi}]"]
    return []


def check_first_moment(mu: float, lams: list[float], Vn: float, Et: float) -> list[str]:
    want = mu * (schedule_sums(lams)["W"] - Vn)
    if not abs(Et - want) <= 1e-12:
        return [f"exact Et {Et} vs mu (W_n - V_n) {want}"]
    return []


def check_tiny(cases: list[tuple[str, object, object]]) -> list[str]:
    """Dynamic program against brute-force enumeration, Et/Vt/Rn to 1e-10."""
    return [f"tiny {label} {f}: dp {getattr(dp, f)} vs enumeration {getattr(tiny, f)}"
            for label, dp, tiny in cases
            for f in ("Et", "Vt", "Rn")
            if not abs(getattr(dp, f) - getattr(tiny, f)) < 1e-10]


def check_violations(violations: list[str]) -> list[str]:
    return [f"inequality grid: {v}" for v in violations[:5]] + (
        [f"... {len(violations) - 5} more"] if len(violations) > 5 else [])


def check_quadrature(rows: list[tuple[int, float, float, float]]) -> list[str]:
    """lambda (1 - lambda) A_integral(k, 1, lambda) = A(k, lambda) to 1e-10."""
    return [f"A_integral k={k} lam={lam}: {lam * (1 - lam) * integral} vs A {a}"
            for k, lam, integral, a in rows
            if not abs(lam * (1.0 - lam) * integral - a) < 1e-10]
