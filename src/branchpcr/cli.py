"""Command-line interface: bounds, estimation, simulation, harmonic tables.

One JSON object per invocation on stdout (or CSV with --format csv);
human-oriented diagnostics go to stderr. Exit codes: 0 success, 2 config
error, 3 domain error or failed checks, 4 population cap exceeded.

Each command imports the layers it runs inside its own function, so a call
loads only those: ``harmonic`` never loads the simulator, ``bounds`` never
loads the harmonic layer, and ``estimate``, ``bounds`` and ``mm`` run on
plain floats and never load numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .schedule import EfficiencySchedule, build_schedule, derived_sequences

if TYPE_CHECKING:
    from .moments import MutationLaw

_SEED_ENV = "BRANCHPCR_SEED"
_HARMONIC_K_MAX = 1000   # time and memory grow as k_max^2: seconds at this cap


class ConfigError(Exception):
    """Structural problem with the run configuration (exit code 2)."""


@dataclasses.dataclass
class RunConfig:
    s0: int | None = None
    n: int | None = None
    sched: EfficiencySchedule | None = None
    law: MutationLaw | None = None
    ell: int | None = None
    t: float | None = None
    z: float = 2.0
    seed: int | None = None
    replicates: int = 1000
    population_cap: int | None = None


def _require(value, name: str):
    if value is None:
        raise ConfigError(f"config field '{name}' is required for this command")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _int_field(value, name: str) -> int:
    """An integral JSON number (2 or 2.0, not 2.7, "2" or true)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field '{name}' must be an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"config field '{name}' must be an integer, got {value}")
        value = int(value)
    return value


def _float_field(value, name: str) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field '{name}' must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"config field '{name}' must be finite, got {value}")
    return value


def parse_config(raw: dict) -> RunConfig:
    cfg = RunConfig()
    for name in ("s0", "n", "seed", "replicates", "population_cap"):
        if name in raw:
            setattr(cfg, name, _int_field(raw[name], name))
    for name in ("replicates", "population_cap"):
        value = getattr(cfg, name)
        if name in raw and value < 1:
            raise ConfigError(f"config field '{name}' must be at least 1, got {value}")
    if cfg.population_cap is not None:
        from .moments import MAX_POPULATION_CAP

        if cfg.population_cap > MAX_POPULATION_CAP:
            raise ConfigError(f"config field 'population_cap' must be at most "
                              f"{MAX_POPULATION_CAP}, got {cfg.population_cap}")
        if cfg.s0 is not None and cfg.population_cap < cfg.s0:
            raise ConfigError(f"config field 'population_cap' must be at least s0 = "
                              f"{cfg.s0}, got {cfg.population_cap}")
    if "z" in raw:
        cfg.z = _float_field(raw["z"], "z")

    sched = raw.get("schedule")
    if sched is not None:
        if not isinstance(sched, dict) or ("lambdas" in sched) == ("mm" in sched):
            raise ConfigError("schedule block needs exactly one of 'lambdas' or 'mm'")
        if "lambdas" in sched:
            lambdas = sched["lambdas"]
            if not isinstance(lambdas, list):
                raise ConfigError("schedule 'lambdas' must be a list of numbers")
            cfg.sched = build_schedule(
                lambdas=[_float_field(x, "schedule.lambdas") for x in lambdas])
        else:
            mm = sched["mm"]
            if not isinstance(mm, dict) or "C" not in mm or "D" not in mm:
                raise ConfigError("mm schedule block needs 'C' and 'D'")
            cfg.sched = build_schedule(mm_C=_float_field(mm["C"], "schedule.mm.C"),
                                       mm_D=_float_field(mm["D"], "schedule.mm.D"))

    mut = raw.get("mutation")
    if mut is not None:
        if not isinstance(mut, dict):
            raise ConfigError("mutation block must be an object")
        from .moments import MutationLaw, poisson_law

        if "poisson" in mut:
            if "mean" in mut or "var" in mut:
                raise ConfigError("mutation block needs exactly one form")
            poisson = mut["poisson"]
            if not isinstance(poisson, dict) or "mu" not in poisson:
                raise ConfigError("mutation 'poisson' must be an object with 'mu'")
            cfg.law = poisson_law(_float_field(poisson["mu"], "mutation.poisson.mu"))
        elif "mean" in mut and "var" in mut:
            cfg.law = MutationLaw(mu=_float_field(mut["mean"], "mutation.mean"),
                                  nu=_float_field(mut["var"], "mutation.var"))
        else:
            raise ConfigError("mutation block needs 'poisson' or 'mean'+'var'")

    sample = raw.get("sample")
    if sample is not None:
        if not isinstance(sample, dict) or "ell" not in sample:
            raise ConfigError("sample block needs 'ell'")
        cfg.ell = _int_field(sample["ell"], "sample.ell")
        if cfg.ell < 1:
            raise ConfigError(f"sample ell must be at least 1, got {cfg.ell}")
        if ("t" in sample) and ("mutations_total" in sample):
            raise ConfigError("sample block needs at most one of 't', 'mutations_total'")
        if "t" in sample:
            cfg.t = _float_field(sample["t"], "sample.t")
        elif "mutations_total" in sample:
            cfg.t = _float_field(sample["mutations_total"], "sample.mutations_total") / cfg.ell
    return cfg


def _config_from_args(args) -> RunConfig:
    raw = load_config(args.config) if args.config else {}
    cfg = parse_config(raw)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if cfg.seed is None and os.environ.get(_SEED_ENV):
        try:
            cfg.seed = int(os.environ[_SEED_ENV])
        except ValueError as exc:
            raise ConfigError(f"{_SEED_ENV} is not an integer") from exc
    if cfg.seed is None:
        cfg.seed = 0
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    return cfg


def _to_jsonable(obj):
    if hasattr(obj, "tolist"):  # a numpy array or scalar
        return _to_jsonable(obj.tolist())
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(x) for x in obj]
    return obj


def _emit_json(payload) -> None:
    print(json.dumps(_to_jsonable(payload), sort_keys=True, indent=2, allow_nan=False))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if hasattr(value, "tolist"):  # a numpy scalar
        value = value.tolist()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flatten(payload, prefix="") -> list[tuple[str, object]]:
    rows = []
    payload = _to_jsonable(payload)
    if isinstance(payload, dict):
        for key in sorted(payload):
            rows.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, list):
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _emit_kv_csv(payload) -> None:
    print("key,value")
    for key, value in _flatten(payload):
        print(f"{key},{_csv_cell(value)}")


def _emit(payload, fmt: str) -> None:
    if fmt == "csv":
        _emit_kv_csv(payload)
    else:
        _emit_json(payload)


def cmd_bounds(args) -> int:
    from .moments import moment_envelope

    cfg = _config_from_args(args)
    sched = _require(cfg.sched, "schedule")
    n = _require(cfg.n, "n")
    seqs = derived_sequences(sched, n)
    envelope = None
    if cfg.law is not None and cfg.s0 is not None:
        envelope = moment_envelope(seqs, cfg.law, cfg.s0, n, cfg.ell or 1)
    else:
        print("note: no mutation/s0 block, emitting sequences only", file=sys.stderr)
    sequences = {
        "lambda": seqs.lam, "alpha": seqs.alpha, "gamma": seqs.gamma,
        "gamma2": seqs.gamma_i[2], "gamma3": seqs.gamma_i[3],
        "W": seqs.W, "Wp": seqs.Wp,
        "lambda_star": seqs.lambda_star,
        "v": seqs.v, "vp": seqs.vp, "vpp": seqs.vpp,
        "u": seqs.u, "up": seqs.up, "upp": seqs.upp,
        "u_wide": seqs.u_wide, "up_wide": seqs.up_wide, "upp_wide": seqs.upp_wide,
    }
    if args.format == "csv":
        # one row per k = 0..n: lambda and alpha start at cycle 1, and
        # lambda_star's k = 0 entry (+inf) prints empty
        cols = {**sequences, "lambda": (None, *seqs.lam), "alpha": (None, *seqs.alpha),
                "lambda_star": (None, *seqs.lambda_star[1:])}
        print(",".join(["k", *cols]))
        for k, row in enumerate(zip(*cols.values())):
            print(",".join(_csv_cell(x) for x in (k, *row)))
        return 0
    _emit_json({"n": n, "sequences": sequences, "envelope": envelope})
    return 0


def _golden_fixture() -> dict:
    ref = importlib.resources.files("branchpcr").joinpath("data/golden_saiki.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def run_golden_checks() -> tuple[list[dict], bool]:
    """Recompute the built-in reference analysis and diff against pinned values."""
    from .estimator import estimate_report, finite_population_bracket

    fx = _golden_fixture()
    cfg = parse_config(fx["config"])
    seqs = derived_sequences(cfg.sched, cfg.n)
    exp = fx["expected"]
    tol = fx["tolerances"]
    report = estimate_report(cfg.t, seqs, cfg.s0, cfg.n, cfg.ell, cfg.z)
    checks = []

    def check(name, computed, expected, tolerance):
        ok = abs(computed - expected) <= tolerance
        checks.append({
            "name": name, "computed": computed, "expected": expected,
            "tol": tolerance, "pass": bool(ok),
        })

    check("W", float(seqs.W[cfg.n]), exp["W"], tol["W"])
    check("Wp", float(seqs.Wp[cfg.n]), exp["Wp"], tol["Wp"])
    check("v", float(seqs.v[cfg.n]), exp["v"], tol["v"])
    check("vpp", float(seqs.vpp[cfg.n]), exp["vpp"], tol["vpp"])
    check("mu_star", report.mu_star, exp["mu_star"], tol["mu_star"])
    check("sigma_star", report.sigma_star, exp["sigma_star"], tol["sigma_star"])
    check("ci_lo", report.ci_lo, exp["ci"][0], tol["ci"])
    check("ci_hi", report.ci_hi, exp["ci"][1], tol["ci"])
    for s0_key, (blo, bhi) in exp["brackets"].items():
        lo, hi = finite_population_bracket(cfg.t, seqs, int(s0_key), cfg.n)
        check(f"bracket_lo_s0_{s0_key}", lo, blo, tol["bracket"])
        check(f"bracket_hi_s0_{s0_key}", hi, bhi, tol["bracket"])
    return checks, all(c["pass"] for c in checks)


def cmd_estimate(args) -> int:
    if args.golden_saiki:
        checks, ok = run_golden_checks()
        for c in checks:
            status = "ok  " if c["pass"] else "FAIL"
            print(f"{status} {c['name']}: computed {c['computed']:.7f}, "
                  f"expected {c['expected']} ±{c['tol']}", file=sys.stderr)
        _emit({"checks": checks, "all_pass": ok}, args.format)
        return 0 if ok else 3
    from .estimator import estimate_report

    cfg = _config_from_args(args)
    sched = _require(cfg.sched, "schedule")
    n = _require(cfg.n, "n")
    s0 = _require(cfg.s0, "s0")
    ell = _require(cfg.ell, "sample.ell")
    t = _require(cfg.t, "sample.t or sample.mutations_total")
    seqs = derived_sequences(sched, n)
    report = estimate_report(t, seqs, s0, n, ell, cfg.z, strict=args.strict)
    print(report.text(), file=sys.stderr)
    _emit(report, args.format)
    return 0


def cmd_simulate(args) -> int:
    from .moments import moment_envelope
    from .simulator import (
        PopulationCapExceeded, ProcessSpec, envelope_checks, monte_carlo_moments,
    )

    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    cfg = _config_from_args(args)
    sched = _require(cfg.sched, "schedule")
    n = _require(cfg.n, "n")
    s0 = _require(cfg.s0, "s0")
    law = _require(cfg.law, "mutation")
    ell = cfg.ell or 1
    spec = ProcessSpec(sched=sched, law=law, S0=s0)
    deterministic = sched.kind == "deterministic"
    collect = bool(args.tv) and law.poisson and deterministic
    print(f"simulating {cfg.replicates} replicates (seed {cfg.seed}, "
          f"threads {args.threads})", file=sys.stderr)
    cap_kw = {} if cfg.population_cap is None else {"population_cap": cfg.population_cap}
    try:
        mc = monte_carlo_moments(
            spec, n, ell, cfg.replicates, cfg.seed,
            threads=args.threads, collect_histogram=collect, **cap_kw,
        )
    except PopulationCapExceeded as exc:
        _emit_json({
            "error": "population_cap",
            "gen": exc.gen,
            "size": exc.size,
            "completed_cycles": len(exc.sizes) - 1,
            "partial_sizes": exc.sizes,
        })
        print(f"population cap exceeded: {exc}", file=sys.stderr)
        return 4
    payload = {
        "replicates": mc.replicates, "n": n, "ell": ell, "seed": cfg.seed,
        "t_mean": mc.t_mean, "t_se": mc.t_se,
        "M_mean": mc.M_mean, "M_se": mc.M_se,
        "D_mean": mc.D_mean,
        "size_mean": mc.size_mean, "size_se": mc.size_se,
        "martingale_mean": mc.martingale_mean, "martingale_se": mc.martingale_se,
        "peak_population": mc.peak_population, "occupied_classes": mc.occupied_classes,
        "cap_headroom": mc.cap_headroom,
    }
    variance_fields = {
        "t_var": mc.t_var, "t_var_se": mc.t_var_se,
        "M_var": mc.M_var, "M_var_se": mc.M_var_se,
    }
    if mc.replicates < 2:
        payload.update({k: None for k in variance_fields})
    else:
        payload.update(variance_fields)
    payload["martingale_check"] = (
        "pass" if abs(mc.martingale_mean - s0) <= 4.0 * mc.martingale_se or
        mc.martingale_se == 0.0 else "fail"
    )
    if deterministic:
        seqs = derived_sequences(sched, n)
        env = moment_envelope(seqs, law, s0, n, ell)
        flags, tv = envelope_checks(mc, env, seqs, law)
        payload["envelope"] = env
        payload["envelope_flags"] = flags
        if tv is not None:
            payload["tv"] = tv
    else:
        payload["envelope"] = None
        print("note: envelopes need a deterministic schedule", file=sys.stderr)
    _emit(payload, args.format)
    return 0


def _float_arg(text: str, name: str) -> float:
    """A finite number given on the command line."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{name} must be a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def cmd_harmonic(args) -> int:
    # a check over an empty grid checks nothing, so the suite needs k_max >= 1
    least, where = (1, " for --property-check") if args.property_check else (0, "")
    if args.k_max is not None and args.k_max > _HARMONIC_K_MAX:
        raise ConfigError(f"--k-max must be at most {_HARMONIC_K_MAX}, got {args.k_max}")
    if args.k_max is not None and args.k_max < least:
        raise ConfigError(f"--k-max must be at least {least}{where}, got {args.k_max}")
    if args.property_check:
        for flag, value in (("--lambdas", args.lambdas), ("--y", args.y)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to --property-check, "
                                  "which runs its own grid")
    from .harmonic import _inequality_suite, family_table

    if args.property_check:
        kwargs = {} if args.k_max is None else {"k_max": args.k_max}
        violations, checked = _inequality_suite(**kwargs)
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        # a clean run reads "0 violations of <checked> assertions"
        _emit({"violations": violations, "count": len(violations), "checked": checked},
              args.format)
        return 0 if not violations else 3
    k_max = 12 if args.k_max is None else args.k_max
    lambdas = ([_float_arg(x, "--lambdas entry") for x in args.lambdas.split(",")]
               if args.lambdas else [0.1, 0.3, 0.5, 0.7, 0.9])
    y = None if args.y is None else _float_arg(args.y, "--y")
    rows = []
    for fam, cf in family_table(k_max, lambdas, y):
        row = {
            "k": fam.k, "lambda": fam.lam, "H": fam.H, "A": fam.A, "G": fam.G,
            "B": fam.B, "Bp": fam.Bp, "Bpp": fam.Bpp, "B1": fam.B1, "B2": fam.B2,
        }
        if cf is not None:
            row.update({"C": cf.C, "Cp": cf.Cp, "Cpp": cf.Cpp, "Hy": cf.Hy})
        rows.append(row)
    if args.format == "json":
        _emit_json({"rows": rows})
    else:
        cols = ["k", "lambda", "H", "A", "G", "B", "Bp", "Bpp", "B1", "B2"]
        if y is not None:
            cols += ["C", "Cp", "Cpp", "Hy"]
        print(",".join(cols))
        for row in rows:
            print(",".join(_csv_cell(row[c]) for c in cols))
    return 0


def cmd_mm(args) -> int:
    from .kinetics import MMParams, random_efficiency_envelope, w_bounds

    cfg = _config_from_args(args)
    n = _require(cfg.n, "n")
    s0 = _require(cfg.s0, "s0")
    sched = _require(cfg.sched, "schedule")
    if sched.kind != "michaelis_menten":
        raise ConfigError("mm command needs a schedule block of the 'mm' form")
    params = MMParams(C=sched.mm_C, D=sched.mm_D, S0=s0)
    wb = w_bounds(params, n)
    payload = {
        "n": n, "C": params.C, "D": params.D, "s0_scaled": params.s0, "b": params.b,
        "w_lower": wb.lower, "w_plus": wb.w_plus, "w_star": wb.w_star,
        "w_upper": wb.upper,
    }
    if cfg.law is not None:
        lo, hi = random_efficiency_envelope(params, cfg.law, n)
        payload["Et_lo"] = lo
        payload["Et_hi"] = hi
    _emit(payload, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchpcr",
        description="Certified moment bounds, estimation and simulation for "
                    "branching amplification processes with mutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("bounds", help="derived sequences and moment envelopes")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("estimate", help="mutation-rate estimate from a sample mean")
    common(p)
    p.add_argument("--strict", action="store_true",
                   help="intersect the sharper two-founder upper route")
    p.add_argument("--golden-saiki", action="store_true",
                   help="run the built-in reference-analysis fixture and diff")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="Monte Carlo replicates with envelope checks")
    common(p, seed=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--tv", action="store_true",
                   help="pooled total-variation report (integer laws only)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("harmonic", help="harmonic-family tables and property checks")
    common(p)
    p.add_argument("--k-max", type=int, default=None, help="largest k of the table "
                   f"(default 12) or of the suite (default 60); at most {_HARMONIC_K_MAX}")
    p.add_argument("--lambdas", help="comma-separated efficiency grid")
    p.add_argument("--y", default=None, help="shift for the C-family columns")
    p.add_argument("--property-check", action="store_true",
                   help="re-run the inequality suite; exit 0 when clean")
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("mm", help="saturating-efficiency envelopes")
    common(p)
    p.set_defaults(func=cmd_mm)
    return parser


# flags whose value may be a negative number
_NUMBER_FLAGS = ("--y", "--lambdas")


def _attach_number_values(argv: list[str]) -> list[str]:
    """Write ``--y -1e-3`` as ``--y=-1e-3``.

    argparse reads a dash-led word that is not a plain decimal (``-1e-3``,
    ``-inf``) as an option, so a negative value after a space would fail to
    parse. A value that starts with ``--`` is left alone.
    """
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _NUMBER_FLAGS and word[:1] == "-" and word[:2] != "--":
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_number_values(argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        # OverflowError: a number too large for a float or a machine integer
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
