"""branchpcr benchmark: one workload per run, one JSON result line at the end.

    python3 bench/run.py --workload {cli-session,montecarlo,oracles} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
``src/`` tree. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
replays the workload with spans around every call into the package's public
functions and reports the per-layer metrics and the tracing overhead. Both
check every output, outside the timed region, and print
``{"correct", "attempted", "failed", "metrics"}`` as the last stdout line.
Result and span files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import time
from collections import defaultdict

from common import OUT, ROOT, median, metric, use_source_tree

WORKLOADS = {"cli-session": "cli_session", "montecarlo": "montecarlo", "oracles": "oracles"}
SETUP_RUNS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import the package, build the inputs and exit (timed by the parent)")
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import branchpcr and build the inputs."""
    walls = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-800:]}")
    return median(walls)


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """True while one more round would end nearer to ``seconds`` than stopping now.

    Rounds are whole, so a run lasts the number of rounds closest to
    ``seconds`` (at least one), not ``seconds`` plus most of a round.
    """
    if rounds == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds <= seconds


def plain(mod, inputs, seconds: float) -> dict:
    """Whole rounds for about ``seconds``; ``round_s`` is the median round.

    A round's time is the sum of its operations' wall times. The median of
    each operation's wall time goes to the result file as detail.
    """
    rounds, per_op = [], defaultdict(list)
    outputs = None
    start = time.perf_counter()
    while another_round(start, len(rounds), seconds):
        out, walls = mod.run_round(inputs)
        rounds.append(sum(walls.values()))
        for name, wall in walls.items():
            per_op[name].append(wall)
        outputs = outputs if outputs is not None else out
    failed, problems = mod.check(inputs, outputs)
    return {
        "attempted": len(rounds) * len(outputs),
        "failed": len(rounds) * len(failed),
        "failures": failed,
        "problems": problems,
        "metrics": {"round_s": metric(median(rounds), "s")},
        "detail": {"rounds": len(rounds),
                   "op_median_s": {name: median(v) for name, v in per_op.items()}},
    }


def traced(mod, workload: str, seed: int, seconds: float, workdir) -> dict:
    """Alternate plain and traced rounds after one warm-up round.

    Per-layer metrics are medians over traced rounds; counts repeat in every
    round. The tracing overhead is the median over pairs of the traced round
    minus the plain round just before it, which cancels slow drift in the
    machine's speed.
    """
    from tracing import SpanView, Tracer, import_metrics, layer_metrics

    layer = defaultdict(list)
    units = {}
    imports = import_metrics()
    inputs = mod.build_inputs(seed, workdir)
    outputs = mod.traced_round(inputs)          # warm-up
    plain_walls, traced_walls, tracers = [], [], []
    start = time.perf_counter()
    while another_round(start, len(traced_walls), seconds):
        t0 = time.perf_counter()
        mod.traced_round(inputs)
        plain_walls.append(time.perf_counter() - t0)
        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            out = mod.traced_round(inputs, tracer)
            traced_walls.append(time.perf_counter() - t0)
        tracers.append(tracer)
        for name, (value, unit) in layer_metrics(SpanView(tracer.spans),
                                                 traced_walls[-1]).items():
            layer[name].append(value)
            units[name] = unit
    failed, problems = mod.check(inputs, out)
    metrics = {name: metric(v, u) for name, (v, u) in imports.items()}
    metrics.update({name: metric(median(v), units[name]) for name, v in layer.items()})
    metrics["trace.spans"] = metric(len(tracers[0].spans), "count")
    overhead = median([t - p for p, t in zip(plain_walls, traced_walls)])
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.overhead_pct"] = metric(100.0 * overhead / median(plain_walls), "%")
    rounds = 1 + len(plain_walls) + len(traced_walls)
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "rounds": [t.spans for t in tracers]}, fh, separators=(",", ":"))
    return {
        "attempted": rounds * len(outputs),
        "failed": rounds * len(failed),
        "failures": failed,
        "problems": problems,
        "metrics": metrics,
        "detail": {"rounds": rounds},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_source_tree()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mod = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            import branchpcr  # noqa: F401
            mod.build_inputs(args.seed, workdir)
            return 0
        if args.trace:
            result = traced(mod, args.workload, args.seed, args.seconds, workdir)
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            inputs = mod.build_inputs(args.seed, workdir)
            result = plain(mod, inputs, args.seconds)
            result["metrics"]["setup_s"] = metric(setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in result["failures"]:
        print(f"operation failed: {failure}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": dict(sorted(result["metrics"].items())),
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**line, "detail": result["detail"]}, indent=1) + "\n",
                            encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
