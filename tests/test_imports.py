"""What `import branchpcr` and each CLI command load, read from sys.modules
of a fresh process, and which names the package and benchmark call."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("cli", "estimator", "harmonic", "kinetics", "moments", "schedule", "simulator")


def modules_after(code: str) -> list[str]:
    """sys.modules after running ``code`` in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stderr.strip().splitlines()[-1])


def test_bare_import_loads_no_layer_and_no_numpy():
    loaded = modules_after("import branchpcr")
    assert [m for m in loaded if m.startswith("branchpcr.")] == []
    assert "numpy" not in loaded


def test_closed_form_layers_load_no_numpy():
    loaded = modules_after("import branchpcr.estimator, branchpcr.kinetics")
    assert {"branchpcr.estimator", "branchpcr.kinetics", "branchpcr.moments",
            "branchpcr.schedule"} <= set(loaded)
    assert "numpy" not in loaded


def test_exported_names_resolve_and_are_listed():
    probe = (
        "import json, sys\n"
        "import branchpcr\n"
        "listed = dir(branchpcr)\n"
        "from branchpcr import simulate\n"
        "out = {'all': branchpcr.__all__, 'dir': listed,\n"
        "       'resolved': {n: getattr(branchpcr, n).__module__ for n in branchpcr.__all__},\n"
        "       'same': simulate is branchpcr.simulator.simulate,\n"
        "       'layers': [getattr(branchpcr, m).__name__ for m in\n"
        f"                  {LAYERS!r}]}}\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    out = json.loads(proc.stdout)
    assert len(out["all"]) == 23
    assert set(out["all"]) <= set(out["dir"])
    assert set(LAYERS) <= set(out["dir"])
    assert all(mod.startswith("branchpcr.") for mod in out["resolved"].values())
    assert out["same"] is True
    assert out["layers"] == [f"branchpcr.{m}" for m in LAYERS]
    import branchpcr
    with pytest.raises(AttributeError):
        branchpcr.no_such_name


def test_exact_oracles_load_no_lemma_layer():
    loaded = modules_after(
        "from branchpcr.moments import exact_Vn_Vpn, exact_sample_moments, poisson_law\n"
        "from branchpcr.schedule import build_schedule\n"
        "sched = build_schedule([0.5, 0.9, 0.2])\n"
        "exact_Vn_Vpn(sched, 2, 3)\n"
        "exact_sample_moments(sched, poisson_law(0.05), 2, 3, 2)\n"
    )
    assert "branchpcr._gf" in loaded
    assert {"branchpcr.harmonic", "branchpcr._pmf"}.isdisjoint(loaded)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    d = tmp_path_factory.mktemp("configs")
    law = {"poisson": {"mu": 0.05}}
    payloads = {
        "ref": {"s0": 100, "n": 3, "schedule": {"lambdas": [0.9, 0.8, 0.2]}, "mutation": law,
                "sample": {"ell": 28, "mutations_total": 17}},
        "sim": {"s0": 2, "n": 4, "schedule": {"lambdas": [0.4] * 4}, "mutation": law,
                "replicates": 50},
        "mm": {"s0": 1, "n": 10, "schedule": {"mm": {"C": 1000.0, "D": 1001.0}},
               "mutation": law},
    }
    payloads["capped"] = {**payloads["ref"], "population_cap": 10**6}
    paths = {}
    for name, payload in payloads.items():
        paths[name] = str(d / f"{name}.json")
        (d / f"{name}.json").write_text(json.dumps(payload))
    return paths


# command -> (layers it must load, modules it must not load); a name in
# LAYERS is a branchpcr layer, any other name a top-level module
CLOSED_FORM_ABSENT = {"simulator", "harmonic", "concurrent.futures", "numpy"}
CASES = {
    "estimate-golden": (["estimate", "--golden-saiki"], {"estimator", "moments"},
                        CLOSED_FORM_ABSENT | {"kinetics"}),
    "estimate": (["estimate", "--config", "{ref}"], {"estimator", "moments"},
                 CLOSED_FORM_ABSENT | {"kinetics"}),
    "bounds": (["bounds", "--config", "{ref}"], {"moments"},
               CLOSED_FORM_ABSENT | {"kinetics", "estimator"}),
    "bounds-csv": (["bounds", "--config", "{ref}", "--format", "csv"], {"moments"},
                   CLOSED_FORM_ABSENT | {"kinetics", "estimator"}),
    "bounds-capped": (["bounds", "--config", "{capped}"], {"moments"},
                      CLOSED_FORM_ABSENT | {"kinetics", "estimator"}),
    "harmonic-table": (["harmonic", "--k-max", "3", "--y", "1"], {"harmonic"},
                       {"simulator", "estimator", "kinetics", "moments"}),
    "harmonic-check": (["harmonic", "--property-check", "--k-max", "3"], {"harmonic"},
                       {"simulator", "estimator", "kinetics", "moments"}),
    "mm": (["mm", "--config", "{mm}"], {"kinetics", "moments"},
           CLOSED_FORM_ABSENT | {"estimator"}),
    "simulate": (["simulate", "--config", "{sim}", "--seed", "1", "--tv"],
                 {"simulator", "moments"},
                 {"harmonic", "kinetics", "estimator", "concurrent.futures"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_only_its_layers(configs, case):
    argv, needed, absent = CASES[case]
    argv = [a.format(**configs) for a in argv]
    # what `python -m branchpcr <argv>` runs
    loaded = modules_after(
        "import runpy, sys\n"
        f"sys.argv = ['branchpcr', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('branchpcr', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    full = {f"branchpcr.{m}" if m in LAYERS else m for m in absent}
    assert {f"branchpcr.{m}" for m in needed} <= set(loaded)
    assert full.isdisjoint(loaded), sorted(full & set(loaded))


ROOT = Path(__file__).resolve().parents[1]
# public names that no library path, command or benchmark operation calls,
# each kept for a stated reason; wiring one in or deleting it shortens the list
UNCALLED_KEPT = {
    "correction_ratio_report": "acceptance 2's correction-ratio constants",
    "B_family": "test reference: the scalar front of the B rows the suite reduces",
    "H_y": "test reference: the scalar front of C_family's Hy",
    "taylor_sandwich": "test reference: the scalar row of the suite's Taylor sandwich",
    "exact_w_mean": "ROADMAP item 5: the exact E[w_n] column of mm",
    "simulate_batch": "ROADMAP item 1: the engine the benchmark's mm operation moves to",
    "chebyshev_interval": "ROADMAP item 2: replaced by the envelope-band interval",
}


def _reads(node: ast.AST, function: bool) -> set[str]:
    """Names a statement reads or imports; in a function or class, the names
    it binds itself (parameters, assignments) are local and do not count. A
    name written as a string, such as a key of the lazy export table, is
    not a call."""
    names, local = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            (names if isinstance(sub.ctx, ast.Load) else local).add(sub.id)
        elif isinstance(sub, ast.arg):
            local.add(sub.arg)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names - local if function else names


def test_every_public_name_has_a_caller():
    # a name counts as called only from reachable code: the fixpoint from
    # module-level code (the commands and the benchmark's operations) and
    # UNCALLED_KEPT, through the top-level definitions each reached name
    # binds; private helpers count too. Exporting a name does not call it
    package = ROOT / "src" / "branchpcr"
    callers = [*package.glob("*.py"),
               *(p for p in (ROOT / "bench").glob("*.py") if p.name != "test_bench.py")]
    top, bodies = set(), {}
    for path in callers:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(stmt.name, set()).update(_reads(stmt, True) - {stmt.name})
            else:
                top |= _reads(stmt, False)
    reached, todo = set(), [*top, *UNCALLED_KEPT]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += bodies.get(name, ())
    defined = {
        stmt.name
        for module in (*LAYERS, "_pmf", "_gf")
        for stmt in ast.parse((package / f"{module}.py").read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    assert sorted(defined - reached) == [], "names only tests call"
    called = top.union(*(bodies.get(name, ()) for name in reached))
    assert sorted(set(UNCALLED_KEPT) - defined) == [], "kept names that are gone"
    assert sorted(set(UNCALLED_KEPT) & called) == [], "kept names that now have a caller"
