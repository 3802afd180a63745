"""End-to-end command-line runs via subprocess."""

import json
import math
import os
import subprocess
import sys

import pytest

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
    last = lines[-1].split(",")
    W_json = json.loads(json_out.stdout)["sequences"]["W"][30]
    assert float(last[6]) == pytest.approx(W_json, rel=1e-11)


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
    raw = json.loads(open(cfg).read())
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
    raw = json.loads(open(ref_config(tmp_path)).read())
    raw[field] = value
    cfg = write_config(tmp_path, raw, name="nonfinite.json")
    proc = run_cli(command, "--config", cfg)
    assert proc.returncode in (2, 3), proc.stdout
    assert "Traceback" not in proc.stderr
    if proc.stdout:
        strict_json(proc.stdout)


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
    assert payload["partial_sizes"][0] == 1
    assert payload["size"] > 10**8
    assert "population cap exceeded" in proc.stderr


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


def test_harmonic_property_check():
    proc = run_cli("harmonic", "--property-check", "--k-max", "8")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["count"] == 0 and payload["violations"] == []


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
