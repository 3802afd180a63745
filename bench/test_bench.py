"""Tests of the benchmark itself: its recomputations and that its checks are live.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

from common import REF_LAMBDAS, use_source_tree

use_source_tree()

import checks  # noqa: E402
import cli_session  # noqa: E402
import tracing  # noqa: E402
from branchpcr import harmonic, kinetics, moments, schedule, simulator  # noqa: E402

SCHEDULES = [[0.5] * 6, [0.25 / k for k in range(1, 11)], [0.9, 0.0, 1.0, 0.3], REF_LAMBDAS]


# -- independent recomputations agree with the program ----------------------

@pytest.mark.parametrize("lams", SCHEDULES)
def test_schedule_sums_match_derived_sequences(lams):
    seqs = schedule.derived_sequences(schedule.build_schedule(lams), len(lams))
    ref = checks.schedule_sums(lams)
    n = len(lams)
    for key, got in (("W", seqs.W[n]), ("gamma", seqs.gamma[n]), ("v", seqs.v[n]),
                     ("vpp", seqs.vpp[n])):
        assert ref[key] == pytest.approx(float(got), rel=1e-12, abs=1e-15)


def test_mean_size_matches_size_law():
    lams = [0.3, 0.8, 0.5, 0.6, 0.9]
    law = moments.size_law(schedule.build_schedule(lams), 2, len(lams))
    assert checks.mean_size(lams, 2) == pytest.approx(law.mean(), rel=1e-12)


@pytest.mark.parametrize("lam", [0.05, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("k", [1, 2, 7, 12])
def test_harmonic_H_matches_program(k, lam):
    assert checks.harmonic_H(k, lam) == pytest.approx(harmonic.H(k, lam), rel=1e-12)
    assert checks.harmonic_H(k, lam, 1.0) == pytest.approx(harmonic.H_y(k, lam, 1.0), rel=1e-12)


@pytest.mark.parametrize("C,D,S0,n", [(1000.0, 1001.0, 1, 50), (10.0, 5.0, 3, 7)])
def test_mm_w_lower_matches_w_bounds(C, D, S0, n):
    wb = kinetics.w_bounds(kinetics.MMParams(C=C, D=D, S0=S0), n)
    assert checks.mm_w_lower(C, D, S0, n) == pytest.approx(wb.lower, rel=1e-12)


def test_strict_json_rejects_non_finite():
    assert checks.parse_strict_json('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            checks.parse_strict_json(bad)


# -- cli-session: checks pass on real output, fail on perturbed output -------

@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    inputs = cli_session.build_inputs(3, tmp_path_factory.mktemp("cli"))
    outputs = cli_session.traced_round(inputs)
    return inputs, outputs


def _perturb_json(outputs, label, edit):
    out = copy.deepcopy(outputs)
    code, stdout, stderr = out[label]
    payload = json.loads(stdout)
    edit(payload)
    out[label] = (code, json.dumps(payload), stderr)
    return out


def test_cli_checks_pass(cli_run):
    inputs, outputs = cli_run
    assert cli_session.check(inputs, outputs) == ([], [])


PERTURBATIONS = {
    "estimate_golden": lambda p: p["checks"][0].update({"pass": False}),
    "estimate": lambda p: p.update({"mu_star": p["mu_star"] * (1 + 1e-9)}),
    "bounds": lambda p: p["sequences"]["vpp"].__setitem__(-1, p["sequences"]["vpp"][-1] + 1e-9),
    "simulate_tv": lambda p: p["tv"].update({"check": "fail"}),
    "property_check": lambda p: p.update({"count": 1, "violations": ["x"]}),
    "harmonic_table": lambda p: p["rows"][5].update({"H": p["rows"][5]["H"] + 1e-9}),
    "mm": lambda p: p.update({"w_lower": p["w_lower"] * 1.001}),
}


@pytest.mark.parametrize("label", sorted(PERTURBATIONS))
def test_cli_checks_catch_perturbation(cli_run, label):
    inputs, outputs = cli_run
    failed, bad = cli_session.check(inputs, _perturb_json(outputs, label, PERTURBATIONS[label]))
    assert failed == [] and bad


def test_cli_simulate_flags_are_checked(cli_run):
    inputs, outputs = cli_run
    for edit in (lambda p: p.update({"martingale_check": "fail"}),
                 lambda p: p["envelope_flags"].update({"Vt": "fail"})):
        assert cli_session.check(inputs, _perturb_json(outputs, "simulate_tv", edit))[1]


def test_cli_order_properties_are_checked(cli_run):
    inputs, outputs = cli_run
    swapped = _perturb_json(outputs, "estimate", lambda p: p.update(
        {"bracket_lo": p["bracket_hi"], "bracket_hi": p["bracket_lo"]}))
    assert any("bracket" in b for b in cli_session.check(inputs, swapped)[1])
    env = _perturb_json(outputs, "bounds", lambda p: p["envelope"].update(
        {"Et_hi": p["envelope"]["Et_star"] * 1.01}))
    assert any("Et_star" in b for b in cli_session.check(inputs, env)[1])


def test_cli_csv_nan_and_exit_are_caught(cli_run):
    inputs, outputs = cli_run
    out = dict(outputs)
    code, stdout, stderr = out["bounds_csv"]
    lines = stdout.strip().splitlines()
    cells = lines[-1].split(",")
    cells[6] = repr(float(cells[6]) * (1 + 1e-9))     # W
    out["bounds_csv"] = (code, "\n".join(lines[:-1] + [",".join(cells)]), stderr)
    assert any("bounds csv W" in b for b in cli_session.check(inputs, out)[1])
    out = dict(outputs)
    out["mm"] = (0, outputs["mm"][1].replace(str(json.loads(outputs["mm"][1])["w_lower"]),
                                             "NaN"), "")
    assert any("strict JSON" in b for b in cli_session.check(inputs, out)[1])
    out = dict(outputs)
    out["estimate"] = (1, "", "Traceback ...")
    failed, bad = cli_session.check(inputs, out)
    assert len(failed) == 1 and bad == []


# -- montecarlo checks ----------------------------------------------------

@pytest.fixture(scope="module")
def small_mc():
    lams = [0.5] * 4
    sched = schedule.build_schedule(lams)
    law = moments.poisson_law(0.3)
    spec = simulator.ProcessSpec(sched, law, 2)
    mc = simulator.monte_carlo_moments(spec, 4, 3, 4000, 11, collect_histogram=True)
    exact = moments.exact_sample_moments(sched, law, 2, 4, 3)
    seqs = schedule.derived_sequences(sched, 4)
    return lams, law, seqs, mc, exact


def test_mc_exact_check(small_mc):
    lams, law, seqs, mc, exact = small_mc
    assert checks.check_mc_exact("x", mc, exact, 2) == []
    for field, se in (("t_mean", "t_se"), ("M_mean", "M_se"),
                      ("martingale_mean", "martingale_se")):
        shifted = copy.copy(mc)
        object.__setattr__(shifted, field, getattr(mc, field) + 9 * getattr(mc, se))
        assert checks.check_mc_exact("x", shifted, exact, 2), field


def test_mc_hist_check(small_mc):
    lams, law, seqs, mc, exact = small_mc
    _, probs = simulator.eta_star_distribution(seqs, law, 4)
    v_n = float(seqs.v[4])
    assert checks.check_mc_hist("x", mc, probs, v_n, 2) == []
    moved = copy.copy(mc)
    hist = dict(mc.eta_hist)
    hist[0] -= 0.4
    hist[1] = hist.get(1, 0.0) + 0.4
    object.__setattr__(moved, "eta_hist", hist)
    assert checks.check_mc_hist("x", moved, probs, v_n, 2)


def test_mc_reference_check(small_mc):
    lams, law, seqs, mc, exact = small_mc
    env = moments.moment_envelope(seqs, law, 2, 4, 3)
    assert checks.check_mc_reference("x", mc, env.Et_lo, env.Et_hi, lams, 2) == []
    for field, se in (("t_mean", "t_se"), ("size_mean", "size_se")):
        shifted = copy.copy(mc)
        object.__setattr__(shifted, field, getattr(mc, field) - 9 * getattr(mc, se)
                           - (env.Et_hi - env.Et_lo))
        assert checks.check_mc_reference("x", shifted, env.Et_lo, env.Et_hi, lams, 2), field


def test_mm_marks_check():
    rng = np.random.default_rng(5)
    w = list(rng.normal(2.0, 0.1, 400))
    r = list(rng.normal(2.0, 3.0, 400))
    assert checks.check_mm_marks("mm", 10, w, r, 1.5, 2.5, 1.5) == []
    assert checks.check_mm_marks("mm", 10, [x + 0.6 for x in w], r, 1.5, 2.5, 1.5)
    assert checks.check_mm_marks("mm", 10, w, [x + 2.0 for x in r], 1.5, 2.5, 1.5)


# -- oracles checks -------------------------------------------------------

def test_oracle_checks():
    lams = [0.5] * 6
    sched = schedule.build_schedule(lams)
    law = moments.poisson_law(0.05)
    slaw = moments.size_law(sched, 2, 6)
    assert checks.check_size_law(slaw.sizes, slaw.probs, lams, 2) == []
    probs = slaw.probs.copy()
    probs[3] += 1e-9
    assert checks.check_size_law(slaw.sizes, probs, lams, 2)
    assert checks.check_size_law(slaw.sizes[::-1], slaw.probs, lams, 2)

    _, Vn, _ = moments.exact_Vn_Vpn(sched, 2, 6)
    assert checks.check_Vn(Vn, lams, 2) == []
    assert checks.check_Vn(Vn * 2.0, lams, 2) and checks.check_Vn(Vn * 0.5, lams, 2)
    exact = moments.exact_sample_moments(sched, law, 2, 6, 4)
    assert checks.check_first_moment(0.05, lams, Vn, exact.Et) == []
    assert checks.check_first_moment(0.05, lams, Vn, exact.Et + 1e-11)

    b = harmonic.harmonic_moment_bounds(sched, 2, 6, 1.0)
    m = slaw.harmonic_moment(1.0)
    assert checks.check_harmonic_moments({1.0: (m, b.lower, b.upper)}) == []
    assert checks.check_harmonic_moments({1.0: (b.upper * 1.01, b.lower, b.upper)})

    tiny_sched = schedule.build_schedule([0.3, 0.6])
    dp = moments.exact_sample_moments(tiny_sched, law, 2, 2, 3)
    tiny = simulator.enumerate_tiny(tiny_sched, law, 2, 2, ell=3)
    assert checks.check_tiny([("t", dp, tiny)]) == []
    off = copy.copy(dp)
    object.__setattr__(off, "Rn", dp.Rn + 1e-9)
    assert checks.check_tiny([("t", off, tiny)])

    assert checks.check_violations([]) == []
    assert checks.check_violations(["H range (k=1, lam=0.5)"])
    rows = [(k, 0.3, harmonic.A_integral(k, 1, 0.3), harmonic.A(k, 0.3)) for k in (1, 5)]
    assert checks.check_quadrature(rows) == []
    assert checks.check_quadrature([(1, 0.3, rows[0][2] * (1 + 1e-7), rows[0][3])])


# -- tracer ---------------------------------------------------------------

def test_tracer_nests_internal_calls_and_restores():
    original = moments.exact_Vn_Vpn
    sched = schedule.build_schedule([0.5] * 4)
    law = moments.poisson_law(0.1)
    spec = simulator.ProcessSpec(sched, law, 2)
    views = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            assert moments.exact_Vn_Vpn is not original
            with tracer.span("op"):
                moments.exact_Vn_Vpn(sched, 2, 4)
                simulator.monte_carlo_moments(spec, 4, 2, 8, 1)
        views.append(tracing.SpanView(tracer.spans))
    assert moments.exact_Vn_Vpn is original
    view = views[0]
    assert view.count("harmonic.A", under="moments.exact_Vn_Vpn") > 0
    assert view.count("harmonic.H_y", under="harmonic.A") == view.count("harmonic.A")
    assert view.count("simulator.simulate", under="simulator.monte_carlo_moments") == 8
    assert all(view.self_time(i) >= 0 for i in range(len(view.spans)))
    assert math.isclose(view.total("op"), view.self_total("op")
                        + view.total("moments.exact_Vn_Vpn")
                        + view.total("simulator.monte_carlo_moments"), rel_tol=1e-9)
    counts = [{name: len(idx) for name, idx in v.by_name.items()} for v in views]
    assert counts[0] == counts[1]


def test_layer_metrics_cover_every_layer():
    sched = schedule.build_schedule([0.5] * 4)
    tracer = tracing.Tracer()
    with tracer:
        with tracer.span("op"):
            moments.exact_Vn_Vpn(sched, 2, 4)
    view = tracing.SpanView(tracer.spans)
    m = tracing.layer_metrics(view, view.total("op"))
    assert set(m) == {"package.busy_s"} | {f"{layer}.{kind}" for layer in tracing.LAYERS
                                           for kind in ("busy_pct", "calls")}
    assert m["moments.calls"][0] == view.count("moments.exact_Vn_Vpn")
    assert m["harmonic.calls"][0] == len(view.spans) - 1 - m["moments.calls"][0]
    assert m["cli.calls"][0] == 0 and m["cli.busy_pct"][0] == 0.0
    assert math.isclose(m["package.busy_s"][0], view.total("moments.exact_Vn_Vpn"), rel_tol=1e-9)
    assert 0.0 < sum(m[f"{layer}.busy_pct"][0] for layer in tracing.LAYERS) <= 100.0
