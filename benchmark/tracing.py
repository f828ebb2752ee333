"""Per-layer tracing of systolab from outside the package.

The tracer replaces public functions of the layer modules with wrappers
that record one span each: (name, start, end, parent span, row, points).
A module that imported a function by name holds its own reference, so every
attribute of every systolab module that is the original function object is
replaced.  Spans stay in memory until the run ends.  Self time is a span's
duration minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

#: (module, function) pairs wrapped by the tracer.
TRACED = (
    ("harmonics", "sh_sum"),
    ("harmonics", "sh_sum_grad"),
    ("harmonics", "sh_basis"),
    ("metric", "sup_norm"),
    ("metric", "make_variation"),
    ("metric", "min_curvature"),
    ("circles", "great_circle_length"),
    ("circles", "funk_transform"),
    ("circles", "find_signed_funk_axes"),
    ("geodesics", "estimate_systole"),
    ("geodesics", "tighten_sweepout"),
    ("geodesics", "birkhoff_shorten"),
)

NAMESPACES = ("", ".harmonics", ".metric", ".circles", ".geodesics", ".experiments", ".cli")

#: Per-layer metrics and their units.  Counts and seconds are per row.
PER_LAYER = {
    "harmonics.sh_sum.calls": "count",
    "harmonics.sh_sum.s": "s",
    "harmonics.sh_sum_grad.calls": "count",
    "harmonics.sh_sum_grad.s": "s",
    "harmonics.points": "count",
    "harmonics.ns_per_point": "ns",
    "harmonics.sh_basis.s": "s",
    "metric.sup_norm.calls": "count",
    "metric.sup_norm.s": "s",
    "metric.make_variation.s": "s",
    "metric.min_curvature.s": "s",
    "circles.find_signed_funk_axes.s": "s",
    "circles.great_circle_length.s": "s",
    "circles.funk_transform.s": "s",
    "geodesics.estimate_systole.s": "s",
    "geodesics.family_F.s": "s",
    "geodesics.family_G.s": "s",
    "geodesics.witness_polish.s": "s",
    "geodesics.seed_pool.s": "s",
    "geodesics.family_passes": "count",
    "geodesics.witness_passes": "count",
    "geodesics.candidates": "count",
    "geodesics.seed_yield": "ratio",
    "geodesics.witness_gap": "length",
    "trace.overhead_s": "s",
}


def _span_name(module, func, args):
    if func == "tighten_sweepout":
        return f"geodesics.family_{args[1].kind}"
    if func == "birkhoff_shorten":
        return "geodesics.witness_polish"
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.row = -1
        self.counts = defaultdict(float)
        self.seeds_attempted = 0
        self.seeds_kept = 0
        self.witness_gap = 0.0
        self._restore = []

    def _wrap(self, module, func, original):
        tracer = self
        points = func in ("sh_sum", "sh_sum_grad")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                n = np.size(args[1] if len(args) > 1 else kwargs["points"]) // 3 if points else 0
                tracer.spans[idx] = (_span_name(module, func, args), start, end, parent,
                                     tracer.row, n)
            tracer._count(func, result)
            return result

        return wrapper

    def _count(self, func, result):
        if func == "tighten_sweepout":
            self.counts["geodesics.family_passes"] += len(result.trace) - 1
        elif func == "birkhoff_shorten":
            self.counts["geodesics.witness_passes"] += result.passes
        elif func == "estimate_systole":
            tags = [tag for tag, _ in result.candidates]
            self.counts["geodesics.candidates"] += len(tags)
            self.seeds_kept += sum(tag.startswith(("geodesic-seed", "geodesic-funk-circle"))
                                   for tag in tags)
            # seed circles: 20 random ones plus one per signed Funk axis
            self.seeds_attempted += 20 + sum(tag.startswith("family-G-funk-") for tag in tags)
            if result.witness is not None:
                self.witness_gap = max(self.witness_gap, result.witness.length - result.systole)

    def install(self, package):
        """Wrap every traced function in every systolab namespace."""
        import importlib

        modules = [importlib.import_module(package.__name__ + ns) for ns in NAMESPACES]
        for module_name, func in TRACED:
            home = importlib.import_module(f"{package.__name__}.{module_name}")
            original = getattr(home, func)
            wrapper = self._wrap(module_name, func, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self):
        """(name, self seconds, total seconds, points) per finished span."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - child[i], s[2] - s[1], s[5])
                for i, s in enumerate(self.spans)]

    def per_layer(self, rows, overhead_per_call):
        """The per-layer metrics; sums over the run are reported per row."""
        sums = defaultdict(float, self.counts)
        points = 0
        for name, own, total, n in self.self_times():
            if name == "geodesics.estimate_systole":
                # its self time is the seed pool; the stage is reported whole
                sums["geodesics.seed_pool.s"] += own
                own = total
            sums[f"{name}.calls"] += 1
            sums[f"{name}.s"] += own
            points += n
        sums["harmonics.points"] = points
        sums["trace.overhead_s"] = overhead_per_call * len(self.spans)
        out = {metric: sums[metric] / rows for metric in PER_LAYER}
        harmonics_s = sums["harmonics.sh_sum.s"] + sums["harmonics.sh_sum_grad.s"]
        out["harmonics.ns_per_point"] = 1e9 * harmonics_s / points if points else 0.0
        out["geodesics.seed_yield"] = (
            self.seeds_kept / self.seeds_attempted if self.seeds_attempted else 0.0
        )
        out["geodesics.witness_gap"] = self.witness_gap
        return out

def wrapper_cost(repeats=20000):
    """Seconds a traced call costs beyond the call it wraps (median of 5)."""
    def bare(x):
        return x

    tracer = Tracer()
    wrapped = tracer._wrap("bench", "bare", bare)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(repeats):
            bare(0)
        mid = time.perf_counter()
        for _ in range(repeats):
            wrapped(0)
        end = time.perf_counter()
        samples.append(((end - mid) - (mid - start)) / repeats)
        tracer.spans.clear()
    return max(sorted(samples)[2], 0.0)
