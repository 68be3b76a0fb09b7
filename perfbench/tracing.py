"""Spans for the traced run, recorded from the benchmark's own files.

`install` replaces the public functions of the cltau modules (every
binding of them in every loaded cltau module, so `from .x import f`
copies are covered too) with wrappers that open and close a span;
`uninstall` puts the originals back.  The program's source is not
touched.  A span is [op, name, start, end, parent, attr]: `op` is shared
by every span of one operation, `parent` indexes the enclosing span (-1
for the operation's root) and `attr` carries what the layer metrics need
(points evaluated, matrix key, condition number, error name).

Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the part of it that its children cover.
"""

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("fracderiv", "quadrature", "cltransform", "orthopoly", "solver", "exprlang", "cli")
# Layer names for the functions the per-layer metrics are about; every other
# public function gets the span name "<module>.<function>".
SPAN_NAMES = {
    "fracderiv.operational_matrix": "fracderiv.opmatrix",
    "quadrature.legendre_gauss_rule": "quadrature.rule",
    "quadrature.chebyshev_gauss_rule": "quadrature.rule",
    "cltransform.chebyshev_interpolate": "cltransform.interpolate",
    "orthopoly.eval_series": "orthopoly.series_eval",
    "orthopoly.shifted_legendre_table": "orthopoly.table",
    "orthopoly.shifted_chebyshev_table": "orthopoly.table",
    "solver.assemble_system": "solver.assemble",
    "solver.solve_fide": "solver.lu",
    "solver.l2_error": "solver.error_norms",
    "solver.max_error": "solver.error_norms",
    "solver.convergence_study": "solver.convergence",
}
# Methods wrapped on their class: (module, class, method, span name).
METHODS = (
    ("orthopoly", "MonomialSeries", "__call__", "orthopoly.series_eval"),
    ("cli", "ProblemConfig", "build", "cli.config"),
)
OP_ROOT = "bench.op"
SETUP_ROOT = "bench.setup"

# Per-op layers reported as .calls and .self_s (means over traced operations).
CALL_LAYERS = (
    "fracderiv.opmatrix", "quadrature.rule", "cltransform.interpolate",
    "solver.forcing_fn", "orthopoly.series_eval", "solver.kernel_fn", "exprlang.evaluate",
)
SELF_LAYERS = CALL_LAYERS + (
    "cltransform.transform_pair", "orthopoly.table", "solver.forcing_coeffs",
    "solver.kernel_moments", "solver.assemble", "solver.lu", "solver.mms_forcing",
    "solver.error_norms", "exprlang.parse", "cli.main", "bench",
)
SETUP_LAYERS = ("fracderiv.opmatrix", "solver.mms_forcing", "exprlang.parse")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every metric a traced run prints."""
    out = [(f"{layer}.calls", "count", "lower") for layer in CALL_LAYERS]
    out += [("fracderiv.opmatrix.distinct", "count", "lower"),
            ("solver.forcing_fn.points", "count", "higher"),
            ("solver.kernel_fn.points", "count", "higher")]
    out += [(f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS]
    out += [("solver.lu.failed", "count", "lower"), ("solver.cond_max", "ratio", "lower")]
    out += [(f"setup.{layer}.self_s", "s", "lower") for layer in SETUP_LAYERS]
    out += [("setup.total_s", "s", "lower"),
            ("cli.interpreter_s", "s", "lower"), ("cli.import_s", "s", "lower"),
            ("trace.ops", "count", "higher"), ("trace.overhead_ms.p50", "ms", "lower"),
            ("trace.selfsum_err_max", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self, limit: int = 200_000):
        self.spans = []
        self.stack = []
        self.op = -1
        self.limit = limit

    @property
    def full(self) -> bool:
        return len(self.spans) >= self.limit

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent, None])
        self.stack.append(index)
        return index

    def end(self, index: int, attr=None):
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[5] = attr
        self.stack.pop()

    @contextmanager
    def operation(self, root: str = OP_ROOT):
        self.op += 1
        index = self.begin(root)
        try:
            yield
        finally:
            self.end(index)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def traced(tracer: Tracer, name: str, fn, attr=None):
    """fn wrapped in a span; attr(args, result) fills the span's attr."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(index, {"error": type(exc).__name__})
            raise
        tracer.end(index, attr(args, result) if attr else None)
        return result
    return wrapper


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else 1


ATTRS = {
    "fracderiv.opmatrix": lambda args, result: {"key": [result.alpha, result.n]},
    "solver.lu": lambda args, result: {"cond": result.condition_estimate},
    "solver.kernel_fn": lambda args, result: {"points": _size(result)},
    "solver.forcing_fn": lambda args, result: {"points": _size(args[0])},
}


def trace_callable(tracer: Tracer, name: str, fn):
    """A problem's kernel ("solver.kernel_fn") or forcing ("solver.forcing_fn")."""
    return traced(tracer, name, fn, ATTRS[name])


def install(tracer: Tracer) -> list:
    """Wrap the cltau public functions and METHODS; returns the undo list."""
    wrappers = {}
    for module_name in MODULES:
        module = importlib.import_module(f"cltau.{module_name}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if callable(fn) and not isinstance(fn, type):
                name = SPAN_NAMES.get(f"{module_name}.{attr}", f"{module_name}.{attr}")
                wrappers[id(fn)] = (fn, traced(tracer, name, fn, ATTRS.get(name)))
    undo = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "cltau" or module_name.startswith("cltau.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    for module_name, class_name, method, name in METHODS:
        cls = getattr(importlib.import_module(f"cltau.{module_name}"), class_name)
        original = cls.__dict__[method]
        setattr(cls, method, traced(tracer, name, original))
        undo.append((cls, method, original))
    return undo


def uninstall(undo: list):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[2], span[3]
        covered, cursor = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][2]):
            lo, hi = max(spans[child][2], cursor), min(spans[child][3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def merge(span_lists) -> list:
    """Concatenate per-process span lists, keeping op ids and parents distinct."""
    merged, op_base = [], 0
    for spans in span_lists:
        base = len(merged)
        top = -1
        for op, name, start, end, parent, attr in spans:
            merged.append([op + op_base, name, start, end,
                           parent + base if parent >= 0 else -1, attr])
            top = max(top, op)
        op_base += top + 1
    return merged


def layer_table(spans) -> tuple[dict, float]:
    """Per-layer metrics (means over operations of each root kind) and the
    largest relative gap between an operation's summed self times and its
    root span's duration."""
    selfs = self_times(spans)
    ops = defaultdict(lambda: {"root": None, "self": defaultdict(float),
                               "calls": defaultdict(int), "points": defaultdict(int),
                               "keys": set(), "failed": 0, "cond": 0.0, "sum": 0.0})
    for span, own in zip(spans, selfs):
        record = ops[span[0]]
        name, attr = span[1], span[5] or {}
        if span[4] < 0:
            record["root"] = span
            name = "bench"
        record["sum"] += own
        record["self"][name] += own
        record["calls"][name] += 1
        record["points"][name] += attr.get("points", 0)
        if "key" in attr:
            record["keys"].add(tuple(attr["key"]))
        if name == "solver.lu":
            if "error" in attr:
                record["failed"] += 1
            record["cond"] = max(record["cond"], attr.get("cond", 0.0))
    timed = [r for r in ops.values() if r["root"] is not None and r["root"][1] == OP_ROOT]
    setups = [r for r in ops.values() if r["root"] is not None and r["root"][1] == SETUP_ROOT]
    gap = max((abs(r["sum"] - (r["root"][3] - r["root"][2])) / (r["root"][3] - r["root"][2])
               for r in ops.values() if r["root"] is not None), default=0.0)

    def mean(records, field, layer):
        return sum(r[field][layer] for r in records) / len(records) if records else 0.0

    table = {}
    for layer in CALL_LAYERS:
        table[f"{layer}.calls"] = mean(timed, "calls", layer)
    table["fracderiv.opmatrix.distinct"] = (
        sum(len(r["keys"]) for r in timed) / len(timed) if timed else 0.0)
    for layer in ("solver.forcing_fn", "solver.kernel_fn"):
        calls = sum(r["calls"][layer] for r in timed)
        table[f"{layer}.points"] = sum(r["points"][layer] for r in timed) / calls if calls else 0.0
    for layer in SELF_LAYERS:
        table[f"{layer}.self_s"] = mean(timed, "self", layer)
    table["solver.lu.failed"] = sum(r["failed"] for r in timed)
    table["solver.cond_max"] = max((r["cond"] for r in timed), default=0.0)
    for layer in SETUP_LAYERS:
        table[f"setup.{layer}.self_s"] = mean(setups, "self", layer)
    table["setup.total_s"] = (sum(r["root"][3] - r["root"][2] for r in setups) / len(setups)
                              if setups else 0.0)
    table["trace.ops"] = len(timed)
    return table, (gap if math.isfinite(gap) else math.inf)
