"""End-to-end command-line runs via subprocess, and config parsing in-process."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from branchpcr import cli

REF_LAMBDAS = [0.872] * 20 + [0.743] * 5 + [0.146] * 5


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("BRANCHPCR_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "branchpcr.cli", *args],
        capture_output=True, text=True, env=env,
    )


def run_main(argv):
    """cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def ref_config(tmp_path, **extra):
    payload = {
        "s0": 100,
        "n": 30,
        "schedule": {"lambdas": REF_LAMBDAS},
        "mutation": {"poisson": {"mu": 0.05}},
        "sample": {"ell": 28, "mutations_total": 17},
        "z": 2.0,
    }
    payload.update(extra)
    return write_config(tmp_path, payload)


def test_golden_fixture_passes():
    proc = run_cli("estimate", "--golden-saiki")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["all_pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"W", "mu_star", "sigma_star", "ci_lo", "ci_hi",
            "bracket_lo_s0_100"} <= names
    assert all(c["pass"] for c in payload["checks"])
    assert "ok  " in proc.stderr


def test_bounds_json(tmp_path):
    proc = run_cli("bounds", "--config", ref_config(tmp_path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert set(payload) == {"envelope", "n", "sequences"}
    assert payload["n"] == 30
    assert payload["sequences"]["W"][30] == pytest.approx(12.084620244589972)
    assert payload["envelope"]["Vt_lo"] <= payload["envelope"]["Vt_hi"]


def test_bounds_full_efficiency_has_no_correction(tmp_path):
    cfg = write_config(tmp_path, {"n": 4, "schedule": {"lambdas": [1.0] * 4}})
    proc = run_cli("bounds", "--config", cfg)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sequences"]["v"] == [0.0] * 5
    assert payload["envelope"] is None
    assert "sequences only" in proc.stderr


def test_bounds_csv_matches_json(tmp_path):
    cfg = ref_config(tmp_path)
    csv_out = run_cli("bounds", "--config", cfg, "--format", "csv")
    json_out = run_cli("bounds", "--config", cfg)
    lines = csv_out.stdout.strip().splitlines()
    assert lines[0] == ("k,lambda,alpha,gamma,gamma2,gamma3,W,Wp,lambda_star,"
                        "v,vp,vpp,u,up,upp,u_wide,up_wide,upp_wide")
    assert len(lines) == 32  # header + cycles 0..30
    seqs = json.loads(json_out.stdout)["sequences"]
    header = lines[0].split(",")
    assert set(header) == {"k", *seqs}
    for k, line in enumerate(lines[1:]):
        cells = dict(zip(header, line.split(","), strict=True))
        assert cells.pop("k") == str(k)
        for name, cell in cells.items():
            if name in ("lambda", "alpha"):  # per-cycle: entry k - 1, none at k = 0
                want = None if k == 0 else seqs[name][k - 1]
            else:
                want = seqs[name][k]
            if k == 0 and name == "lambda_star":
                assert want == "inf"  # the running minimum over no cycles
                want = None
            assert cell == ("" if want is None else f"{want:.12g}"), (k, name)


def test_malformed_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("bounds", "--config", str(path))
    assert proc.returncode == 2
    assert "config error: config is not valid JSON" in proc.stderr


def test_missing_required_field(tmp_path):
    cfg = write_config(tmp_path, {"n": 5, "schedule": {"lambdas": [0.5] * 5},
                                  "sample": {"ell": 4, "t": 0.1}})
    proc = run_cli("estimate", "--config", cfg)
    assert proc.returncode == 2
    assert "config field 's0' is required for this command" in proc.stderr


def test_estimate_reference_run(tmp_path):
    proc = run_cli("estimate", "--config", ref_config(tmp_path))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["mu_star"] == pytest.approx(0.05024095460630317, rel=1e-13)
    assert payload["ci_lo"] == pytest.approx(0.025530663855982377, rel=1e-12)
    assert payload["ci_hi"] == pytest.approx(0.07495124535662397, rel=1e-12)
    assert payload["negligibility"]["negligible"] is True
    assert "finite-size correction negligible" in proc.stderr


def test_estimate_zero_sample(tmp_path):
    cfg = ref_config(tmp_path)
    raw = json.loads(Path(cfg).read_text())
    raw["sample"] = {"ell": 28, "t": 0.0}
    cfg = write_config(tmp_path, raw, name="zero.json")
    proc = run_cli("estimate", "--config", cfg)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["mu_star"] == 0.0
    assert payload["ci_lo"] == 0.0 and payload["ci_hi"] == 0.0


def test_estimate_domain_error(tmp_path):
    cfg = write_config(tmp_path, {
        "s0": 2, "n": 40, "schedule": {"lambdas": [0.5] * 5},
        "sample": {"ell": 4, "t": 0.1},
    })
    proc = run_cli("estimate", "--config", cfg)
    assert proc.returncode == 3
    assert "domain error" in proc.stderr


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_estimate_all_zero_schedule(tmp_path):
    cfg = write_config(tmp_path, {
        "s0": 2, "n": 3, "schedule": {"lambdas": [0, 0, 0]},
        "sample": {"ell": 4, "t": 0.1},
    })
    proc = run_cli("estimate", "--config", cfg)
    assert proc.returncode == 3
    assert "W_n = 0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, field, value", [
    ("bounds", "mutation", {"mean": math.nan, "var": 0.1}),
    ("bounds", "mutation", {"mean": 0.05, "var": math.inf}),
    ("estimate", "z", math.nan),
])
def test_nonfinite_input_gives_no_bare_nan(tmp_path, command, field, value):
    raw = json.loads(Path(ref_config(tmp_path)).read_text())
    raw[field] = value
    cfg = write_config(tmp_path, raw, name="nonfinite.json")
    proc = run_cli(command, "--config", cfg)
    assert proc.returncode in (2, 3), proc.stdout
    assert "Traceback" not in proc.stderr
    if proc.stdout:
        strict_json(proc.stdout)


@pytest.mark.parametrize("command, field, value", [
    ("simulate", "s0", 1e300),
    ("bounds", "mutation", {"mean": 1e300, "var": 1.0}),
    # a replicate spans about 1e4 classes after one cycle, so its next
    # multinomial draw would need about 1e8 (class, increment) cells
    ("simulate", "mutation", {"poisson": {"mu": 1e4}}),
])
def test_huge_input_is_a_domain_error(tmp_path, command, field, value):
    raw = json.loads(Path(sim_config(tmp_path)).read_text())
    raw[field] = value
    code, out, err = run_main([command, "--config", write_config(tmp_path, raw, "huge.json")])
    assert (code, out) == (3, "")
    assert "domain error: " in err


def test_mm_overflowing_rate_ratio_is_a_domain_error(tmp_path):
    cfg = write_config(tmp_path, {"s0": 1, "n": 10,
                                  "schedule": {"mm": {"C": 1e300, "D": 1e-300}}})
    code, out, err = run_main(["mm", "--config", cfg])
    assert (code, out) == (3, "")
    assert "b = C/D = inf" in err and "must be finite" in err


def test_emit_json_refuses_nan(capsys):
    with pytest.raises(ValueError):
        cli._emit_json({"x": math.nan})
    assert capsys.readouterr().out == ""


def sim_config(tmp_path, **extra):
    payload = {
        "s0": 2, "n": 6,
        "schedule": {"lambdas": [0.5] * 6},
        "mutation": {"poisson": {"mu": 0.05}},
        "sample": {"ell": 4},
        "replicates": 300,
    }
    payload.update(extra)
    return write_config(tmp_path, payload, name="sim.json")


def test_simulate_reproducible(tmp_path):
    cfg = sim_config(tmp_path)
    a = run_cli("simulate", "--config", cfg, "--seed", "7")
    b = run_cli("simulate", "--config", cfg, "--seed", "7")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["seed"] == 7
    assert payload["martingale_check"] == "pass"
    assert payload["envelope_flags"]["Et"] == "pass"
    c = run_cli("simulate", "--config", cfg, "--seed", "8")
    assert c.stdout != a.stdout


def test_simulate_seed_from_environment(tmp_path):
    cfg = sim_config(tmp_path)
    via_flag = run_cli("simulate", "--config", cfg, "--seed", "7")
    via_env = run_cli("simulate", "--config", cfg,
                      env_extra={"BRANCHPCR_SEED": "7"})
    assert via_env.stdout == via_flag.stdout
    bad = run_cli("simulate", "--config", cfg,
                  env_extra={"BRANCHPCR_SEED": "seven"})
    assert bad.returncode == 2


def test_simulate_single_replicate_drops_variances(tmp_path):
    cfg = sim_config(tmp_path, replicates=1)
    proc = run_cli("simulate", "--config", cfg, "--seed", "3")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["t_var"] is None and payload["M_var"] is None
    assert "Vt" not in payload["envelope_flags"]


def test_simulate_tv_report(tmp_path):
    cfg = sim_config(tmp_path, replicates=2000)
    proc = run_cli("simulate", "--config", cfg, "--seed", "11", "--tv",
                   "--threads", "2")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    tv = payload["tv"]
    assert tv["check"] == "pass"
    assert tv["distance"] <= tv["bound"] + 4 * tv["mc_error"]


def test_simulate_tv_skips_two_point_laws(tmp_path):
    # the report needs integer states, which only the Poisson law gives
    cfg = sim_config(tmp_path, mutation={"mean": 0.1, "var": 0.04})
    proc = run_cli("simulate", "--config", cfg, "--seed", "11", "--tv")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert "tv" not in payload
    assert payload["envelope_flags"]["Et"] == "pass"


def test_simulate_population_cap(tmp_path):
    cfg = write_config(tmp_path, {
        "s0": 1, "n": 28,
        "schedule": {"lambdas": [1.0] * 28},
        "mutation": {"poisson": {"mu": 0.05}},
        "replicates": 1,
    })
    proc = run_cli("simulate", "--config", cfg, "--seed", "1")
    assert proc.returncode == 4
    payload = json.loads(proc.stdout)
    assert payload["error"] == "population_cap"
    assert payload["partial_sizes"] == [2**g for g in range(27)]
    assert (payload["gen"], payload["size"]) == (27, 2**27)
    assert payload["completed_cycles"] == 26
    assert "population cap exceeded" in proc.stderr
    # --format csv prints the same record as key,value rows
    code, out, _ = run_main(["simulate", "--config", cfg, "--seed", "1", "--format", "csv"])
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",") for line in lines[1:])
    assert len(rows) == len(lines) - 1 == 4 + 27
    assert (rows["error"], rows["gen"], rows["size"]) == ("population_cap", "27", str(2**27))
    assert rows["completed_cycles"] == "26"
    assert [int(rows[f"partial_sizes.{g}"]) for g in range(27)] == [2**g for g in range(27)]


def test_simulate_prints_the_record_fields(tmp_path):
    # every MonteCarloMoments field but the per-replicate ones, and the
    # command's own keys: a field added to the record reaches the output
    from branchpcr.simulator import MonteCarloMoments

    code, out, err = run_main(["simulate", "--config", sim_config(tmp_path, replicates=50),
                               "--seed", "5", "--tv"])
    assert code == 0, err
    record = {f.name for f in dataclasses.fields(MonteCarloMoments)}
    own = {"seed", "martingale_check", "envelope", "envelope_flags", "tv"}
    assert set(json.loads(out)) == record - {"t_values", "eta_hist", "eta_hist_sd"} | own


def test_population_cap_below_s0_is_a_config_error(tmp_path):
    # it used to simulate one cycle and exit 4 with "population reached 2 at cycle 1"
    cfg = sim_config(tmp_path, n=3, population_cap=1, schedule={"lambdas": [0.5] * 3})
    for command in ("simulate", "bounds"):
        code, out, err = run_main([command, "--config", cfg])
        assert (code, out) == (2, ""), err
        assert err.startswith("config error: config field 'population_cap' must be at least s0 = 2")

def test_simulate_population_cap_config_field(tmp_path):
    cfg = write_config(tmp_path, {
        "s0": 1, "n": 28,
        "schedule": {"lambdas": [1.0] * 28},
        "mutation": {"poisson": {"mu": 0.05}},
        "replicates": 1,
        "population_cap": 10**9,
    })
    proc = run_cli("simulate", "--config", cfg, "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["size_mean"] == 2**28
    assert payload["peak_population"] == 2**28
    assert payload["cap_headroom"] == 10**9 / 2**28
    assert 1 <= payload["occupied_classes"] <= 29


def test_harmonic_table(tmp_path):
    proc = run_cli("harmonic", "--k-max", "3", "--lambdas", "0.5", "--y", "1")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 3
    assert set(rows[0]) == {"k", "lambda", "H", "A", "G", "B", "Bp", "Bpp",
                            "B1", "B2", "C", "Cp", "Cpp", "Hy"}
    assert rows[0]["H"] == pytest.approx(0.75)
    assert rows[1]["k"] == 2
    assert rows[1]["H"] == pytest.approx(2 * (0.25 / 2 + 0.5 / 3 + 0.25 / 4))
    empty = run_cli("harmonic", "--k-max", "0")
    assert empty.returncode == 0
    assert json.loads(empty.stdout)["rows"] == []


@pytest.mark.parametrize("flags, message", [
    (["--y", "inf"], "--y must be finite"),
    (["--y", "nan"], "--y must be finite"),
    (["--y", "1e309"], "--y must be finite"),
    (["--y=-inf"], "--y must be finite"),
    (["--y", "one"], "--y must be a number"),
    (["--lambdas", "0.3,x"], "--lambdas entry must be a number"),
    (["--lambdas", "0.3,inf"], "--lambdas entry must be finite"),
    (["--y", "-inf"], "--y must be finite"),
])
def test_harmonic_flags_are_typed(flags, message):
    code, out, err = run_main(["harmonic", "--k-max", "3", *flags])
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("y", ["-1e-3", "-0.5"])
def test_harmonic_negative_shift_after_a_space(y):
    """argparse takes a dash-led value for an option unless it is a plain
    decimal; ``--y -1e-3`` must parse as ``--y=-1e-3`` does."""
    spaced = run_cli("harmonic", "--k-max", "3", "--lambdas", "0.5", "--y", y)
    assert spaced.returncode == 0, spaced.stderr
    rows = strict_json(spaced.stdout)["rows"]
    assert [row["k"] for row in rows] == [1, 2, 3]
    joined = run_cli("harmonic", "--k-max", "3", "--lambdas", "0.5", f"--y={y}")
    assert spaced.stdout == joined.stdout


def test_harmonic_table_at_a_huge_shift():
    proc = run_cli("harmonic", "--k-max", "12", "--lambdas", "0.3,0.7", "--y", "1e308")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""      # no RuntimeWarning on the way
    rows = strict_json(proc.stdout)["rows"]
    assert len(rows) == 24
    for row in rows:
        assert row["C"] == pytest.approx(0.0 if row["k"] == 1 else row["B1"], rel=1e-12)
        assert row["Hy"] == pytest.approx(1.0, rel=1e-12)


def test_harmonic_property_check():
    proc = run_cli("harmonic", "--property-check", "--k-max", "8")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] == 0 and payload["violations"] == []
    assert payload["checked"] > 0    # 0 violations of a positive number of assertions
    # a check over an empty grid checked nothing, so it must not pass
    for k_max in ("0", "-5"):
        proc = run_cli("harmonic", "--property-check", "--k-max", k_max)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "config error: --k-max must be at least 1" in proc.stderr


@pytest.mark.parametrize("flags", [[], ["--lambdas", "0.5"], ["--y", "1"]])
def test_harmonic_negative_k_max_is_a_config_error(flags):
    """A bad flag value is a config error (2), not the table's domain error (3)."""
    code, out, err = run_main(["harmonic", "--k-max", "-5", *flags])
    assert (code, out) == (2, "")
    assert err.startswith("config error: --k-max must be at least 0, got -5")


@pytest.mark.parametrize("flags", [["--lambdas", "0.3"], ["--y", "1"], ["--y=-0.5"],
                                   ["--lambdas", "0.3", "--y", "1"]])
def test_harmonic_property_check_rejects_table_flags(flags):
    """The suite runs its own grid, so a table flag beside it is refused, not ignored."""
    code, out, err = run_main(["harmonic", "--property-check", "--k-max", "3", *flags])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {flags[0].split('=')[0]} does not apply "
                          "to --property-check")


@pytest.mark.parametrize("k_max", ["1001", "200000"])
@pytest.mark.parametrize("form", [["--lambdas", "0.5"], ["--property-check"]])
def test_harmonic_k_max_is_capped(form, k_max):
    """A --k-max past the limit is a config error, not a numpy memory error."""
    proc = run_cli("harmonic", "--k-max", k_max, *form)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: --k-max ")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that stops early (``| head``) ends the call with exit 1, quietly."""
    env = dict(os.environ)
    env.pop("BRANCHPCR_SEED", None)
    # about 136 KB of CSV, past a 64 KB pipe buffer, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "branchpcr", "harmonic", "--k-max", "200", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert proc.stdout.readline().startswith("k,lambda,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_mm_bounds(tmp_path):
    cfg = write_config(tmp_path, {
        "s0": 1, "n": 10,
        "schedule": {"mm": {"C": 1000.0, "D": 1001.0}},
        "mutation": {"poisson": {"mu": 0.05}},
    })
    proc = run_cli("mm", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["b"] == pytest.approx(1000.0 / 1001.0)
    assert payload["w_star"] is None
    assert payload["w_lower"] == pytest.approx(math.log(6.0), rel=1e-12)
    assert payload["w_upper"] == pytest.approx(payload["w_plus"])
    assert payload["Et_hi"] == pytest.approx(0.05 * payload["w_upper"])
    deterministic = write_config(tmp_path, {
        "s0": 1, "n": 10, "schedule": {"lambdas": [0.5] * 10},
    }, name="det.json")
    bad = run_cli("mm", "--config", deterministic)
    assert bad.returncode == 2


@pytest.mark.parametrize("field, value", [
    ("s0", 2.7), ("s0", "abc"), ("s0", True), ("s0", None), ("n", "30"), ("n", 30.5),
    ("seed", 1.5), ("replicates", "many"), ("population_cap", False),
    ("z", "2"), ("z", math.inf), ("z", True),
    ("mutation", {"poisson": 0.1}), ("mutation", {"poisson": {"lam": 0.1}}),
    ("mutation", {"poisson": {"mu": "0.1"}}), ("mutation", {"mean": math.nan, "var": 0.1}),
    ("sample", {"ell": 28.5, "t": 0.1}), ("sample", {"ell": 28, "t": "0.1"}),
    ("schedule", {"lambdas": "0.5"}), ("schedule", {"lambdas": [0.5, "0.5"]}),
    ("schedule", {"mm": {"C": math.inf, "D": 1.0}}),
    ("population_cap", 2**62), pytest.param("population_cap", 10**400, id="population_cap-1e400"),
    ("sample", {"ell": 0, "t": 0.1}), ("sample", {"ell": -2}),
    ("replicates", 0), ("replicates", -3), ("population_cap", 0), ("population_cap", -5),
])
def test_config_fields_are_typed(tmp_path, field, value):
    raw = json.loads(Path(ref_config(tmp_path)).read_text())
    raw[field] = value
    code, out, err = run_main(["bounds", "--config", write_config(tmp_path, raw, "typed.json")])
    assert code == 2, err
    assert out == ""
    assert err.startswith("config error: ")


def test_config_accepts_integral_floats(tmp_path):
    raw = json.loads(Path(ref_config(tmp_path)).read_text())
    plain = run_main(["bounds", "--config", write_config(tmp_path, raw, "plain.json")])
    raw.update(s0=100.0, n=30.0)
    as_floats = run_main(["bounds", "--config", write_config(tmp_path, raw, "floats.json")])
    assert plain[0] == as_floats[0] == 0
    assert plain[1] == as_floats[1]


@pytest.mark.parametrize("flags, env_seed", [
    (["--threads", "0"], None), (["--threads", "-2"], None),
    (["--seed", "-1"], None), ([], "-4"),
])
def test_simulate_rejects_bad_threads_and_seeds(tmp_path, flags, env_seed):
    env = {"BRANCHPCR_SEED": env_seed} if env_seed else None
    proc = run_cli("simulate", "--config", sim_config(tmp_path), *flags, env_extra=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: ")
    raw = json.loads(Path(sim_config(tmp_path)).read_text())
    raw["seed"] = -3
    code, out, err = run_main(["simulate", "--config", write_config(tmp_path, raw, "neg.json")])
    assert (code, out) == (2, "")
    assert "seed must be nonnegative" in err


_unit = st.floats(0.0, 1.0)
_valid_configs = st.fixed_dictionaries({
    "s0": st.integers(1, 8),
    "n": st.integers(1, 6),
    "seed": st.integers(0, 1000),
    "z": st.floats(0.5, 4.0),
    "replicates": st.integers(1, 30),
    "schedule": st.one_of(
        st.fixed_dictionaries({"lambdas": st.lists(_unit, min_size=6, max_size=6)}),
        st.fixed_dictionaries({"mm": st.fixed_dictionaries(
            {"C": st.floats(1.0, 2000.0), "D": st.floats(1.0, 2000.0)})})),
    "mutation": st.one_of(
        st.fixed_dictionaries({"poisson": st.fixed_dictionaries({"mu": st.floats(0.0, 2.0)})}),
        st.fixed_dictionaries({"mean": st.floats(0.0, 2.0), "var": st.floats(0.0, 2.0)})),
    "sample": st.one_of(
        st.fixed_dictionaries({"ell": st.integers(1, 30), "t": st.floats(0.0, 5.0)}),
        st.fixed_dictionaries({"ell": st.integers(1, 30),
                               "mutations_total": st.floats(0.0, 50.0)})),
}, optional={"population_cap": st.integers(1, 10**4)})
# a value of the wrong type, a non-finite or out-of-range number, or a
# missing field (None deletes it)
_bad_values = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 0.5, 2.5, -0.5, 40]),
)
_SLOTS = ("s0", "n", "seed", "z", "replicates", "population_cap", "schedule", "mutation",
          "sample", "schedule.lambdas", "schedule.mm", "schedule.mm.C", "mutation.poisson",
          "mutation.poisson.mu", "mutation.mean", "mutation.var", "sample.ell", "sample.t",
          "sample.mutations_total")


def _corrupt(raw, slot, value):
    *parents, leaf = slot.split(".")
    for key in parents:
        raw = raw.get(key) if isinstance(raw, dict) else None
    if isinstance(raw, dict):
        if value is None:
            raw.pop(leaf, None)
        else:
            raw[leaf] = value


@given(command=st.sampled_from(["bounds", "estimate", "simulate", "mm"]), raw=_valid_configs,
       edits=st.lists(st.tuples(st.sampled_from(_SLOTS), _bad_values), max_size=2))
@example(command="mm", edits=[], raw={
    "s0": 1, "n": 6, "seed": 0, "z": 2.0, "replicates": 1,
    "schedule": {"mm": {"C": 1e300, "D": 1e-300}},
    "mutation": {"poisson": {"mu": 0.05}}, "sample": {"ell": 1, "t": 0.0}})
@example(command="simulate", edits=[], raw={
    "s0": 1, "n": 1, "seed": 0, "z": 1.0, "replicates": 1,
    "schedule": {"mm": {"C": 1.0, "D": 1.0}},
    "mutation": {"mean": 1.6e-208, "var": 0.0}, "sample": {"ell": 1, "t": 0.0}})
@example(command="simulate", edits=[], raw={
    "s0": 1, "n": 1, "seed": 0, "z": 1.0, "replicates": 1,
    "schedule": {"mm": {"C": 1.0, "D": 1.0}},
    "mutation": {"mean": 2.2e-309, "var": 1.0}, "sample": {"ell": 1, "t": 0.0}})
@settings(max_examples=300, deadline=None)
def test_config_fuzz(tmp_path_factory, command, raw, edits):
    for slot, value in edits:
        _corrupt(raw, slot, value)
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_main([command, "--config", str(path)])
    assert code in (0, 2, 3, 4)
    if out:
        strict_json(out)


# `python -m branchpcr` and the console script, whose generated wrapper runs
# sys.exit(main()) on the entry point named in pyproject.toml
ENTRY_POINT = "branchpcr.cli:main"
ENTRIES = {
    "module": [sys.executable, "-m", "branchpcr"],
    "console": [sys.executable, "-c",
                "import sys; from branchpcr.cli import main; sys.exit(main())"],
}


def test_console_entry_point_is_cli_main():
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        assert f'branchpcr = "{ENTRY_POINT}"' in fh.read()


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_exit_codes_through_each_entry(tmp_path, entry):
    env = dict(os.environ)
    env.pop("BRANCHPCR_SEED", None)

    def run(*args):
        return subprocess.run([*ENTRIES[entry], *args], capture_output=True, text=True, env=env)

    # a cap above the engine's limit is a config error even where nothing simulates
    proc = run("bounds", "--config", ref_config(tmp_path, population_cap=2**62))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("config error: config field 'population_cap'")
    capped = write_config(tmp_path, {
        "s0": 1, "n": 12,
        "schedule": {"lambdas": [1.0] * 12},
        "mutation": {"poisson": {"mu": 0.05}},
        "replicates": 3,
        "population_cap": 1000,
    }, name="capped.json")
    proc = run("simulate", "--config", capped, "--seed", "1")
    assert proc.returncode == 4
    assert strict_json(proc.stdout) == {
        "error": "population_cap", "gen": 10, "size": 1024, "completed_cycles": 9,
        "partial_sizes": [2**g for g in range(10)],
    }
    assert "population cap exceeded" in proc.stderr
    proc = run("harmonic", "--k-max", "2", "--lambdas", "1.5")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("domain error: ")
    for y in ("inf", "-inf"):
        proc = run("harmonic", "--k-max", "2", "--y", y)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("config error: --y must be finite")
