"""In-memory spans around calls into branchpcr's public functions.

The tracer replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent). It patches each
module attribute that holds the function, including names bound by
``from .x import f`` in other modules, so internal calls made through module
globals nest under their callers (``monte_carlo_moments`` -> ``simulate``,
``exact_Vn_Vpn`` -> ``A`` -> ``H`` -> ``H_y``). Nothing inside the program
changes; uninstalling restores the original attributes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import subprocess
import sys
import time
from collections import defaultdict

from common import median, source_env

PACKAGE = "branchpcr"
LAYERS = ("cli", "schedule", "estimator", "kinetics", "moments", "harmonic", "simulator")


class Tracer:
    """Span recorder. Spans are lists [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for layer, mod in layers.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class SpanView:
    """Durations, self times and ancestry over a tracer's spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_time = defaultdict(float)
        self.by_name = defaultdict(list)
        for i, rec in enumerate(spans):
            self.by_name[rec[0]].append(i)
            if rec[3] >= 0:
                self.child_time[rec[3]] += rec[2] - rec[1]

    def indices(self, name: str, under: str | None = None) -> list[int]:
        return [i for i in self.by_name.get(name, ())
                if under is None or self.ancestor(i, under)]

    def ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i: int) -> float:
        return self.duration(i) - self.child_time[i]

    def count(self, name: str, under: str | None = None) -> int:
        return len(self.indices(name, under))

    def total(self, name: str, under: str | None = None) -> float:
        return sum(self.duration(i) for i in self.indices(name, under))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(i) for i in self.indices(name))


def layer_metrics(view: SpanView, wall: float) -> dict:
    """Per-layer calls and self time over one traced round of ``wall`` seconds.

    A layer's calls count every span of its public functions, nested ones
    included. Its busy share is its summed self time over the round's wall
    time; ``package.busy_s`` is the self time of all layers together. A layer
    the workload does not call reads 0 calls and 0 %.
    """
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for i, rec in enumerate(view.spans):
        layer = rec[0].split(".", 1)[0]
        if layer in busy:
            busy[layer] += view.self_time(i)
            calls[layer] += 1
    m = {"package.busy_s": (sum(busy.values()), "s")}
    for layer in LAYERS:
        m[f"{layer}.busy_pct"] = (100.0 * busy[layer] / wall, "%")
        m[f"{layer}.calls"] = (calls[layer], "count")
    return m


def import_metrics(runs: int = 3) -> dict:
    """Import times from ``-X importtime``, median of ``runs`` fresh processes.

    branchpcr is the cumulative time of the package import; scipy and numpy
    are the summed self times of every scipy.* and numpy.* module it loads.
    """
    samples = {"branchpcr": [], "scipy": [], "numpy": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import branchpcr"],
                              env=source_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import branchpcr failed: {proc.stderr[-500:]}")
        own = {"scipy": 0, "numpy": 0}
        top = None
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            name = name.strip()
            root = name.split(".")[0]
            if root in own:
                own[root] += int(self_us)
            if name == PACKAGE:
                top = int(cum_us)
        if top is None:
            raise RuntimeError("no branchpcr line in the -X importtime log")
        samples["branchpcr"].append(top / 1e6)
        samples["scipy"].append(own["scipy"] / 1e6)
        samples["numpy"].append(own["numpy"] / 1e6)
    return {
        "branchpcr.import_s": (median(samples["branchpcr"]), "s"),
        "branchpcr.import_scipy_s": (median(samples["scipy"]), "s"),
        "branchpcr.import_numpy_s": (median(samples["numpy"]), "s"),
    }
