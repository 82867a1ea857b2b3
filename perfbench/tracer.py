"""Layer spans recorded from outside the package.

``Tracer.install`` replaces the public functions of each psgroupoid
module, and the evaluators of every Poisson structure the package builds,
with wrappers. A wrapper opens a span only when control crosses into its
module from another one, or when it wraps one of ``NAMED`` (functions
whose own cost is reported). Spans of one operation share its id. They
are kept in flat integer arrays and written out once, by ``write``.

A span's self time is its duration minus the durations of its direct
child spans; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

LAYERS = ("expr", "poisson", "pathspace", "groupoid2d", "lie_dual",
          "radial3d", "cli")

# functions whose self time or call count is a per-layer metric; they open
# a span even when called from their own module
NAMED = {
    "groupoid2d": ("contains", "sample_points", "sample_composable_pairs"),
    "pathspace": ("solve_gauss", "gauge_flow"),
    "lie_dual": ("from_groupoid", "holonomy"),
    "radial3d": ("analyze",),
}

_STRUCTURE_CONSTRUCTORS = ("constant_structure", "two_domain",
                           "kirillov_kostant", "rot_invariant3")
_SCALAR_EVALUATORS = ("alpha", "dalpha", "d2alpha")
_BATCH_EVALUATORS = ("alpha_batch", "dalpha_batch")

_FIELDS = ("func", "parent", "op", "start", "end", "child", "points", "cross")


def _one_point(args, kwargs):
    return 1


def _batch_points(args, kwargs):
    return len(args[-1])


def _array_points(args, kwargs):
    point = args[1] if len(args) > 1 else kwargs["point"]
    return max((getattr(v, "size", 1) for v in point.values()), default=1)


class Tracer:
    """Span recorder for one process. Inactive (wrappers pass straight
    through) until ``begin_op``."""

    def __init__(self):
        self.func_names: list[str] = []
        self.func_layer: list[int] = []
        self.spans = {name: array("q") for name in _FIELDS}
        self.stack = [-1]
        self.layer_stack = [-1]
        self.op = -1
        self.contains_open = 0
        self.samplers_open = 0
        self.expr_calls_in_contains = 0
        self.contains_calls_in_samplers = 0
        self.sampled_points = 0
        self.expm_calls = 0

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id

    def end_op(self):
        self.op = -1

    # -- wrappers ---------------------------------------------------------

    def _func_id(self, layer: str, name: str) -> int:
        self.func_names.append(f"{layer}.{name}")
        self.func_layer.append(LAYERS.index(layer))
        return len(self.func_names) - 1

    def wrap(self, fn, layer: str, name: str, points=_one_point):
        fid = self._func_id(layer, name)
        lid = LAYERS.index(layer)
        named = name in NAMED.get(layer, ())
        kind = ("contains" if name == "contains"
                else "sampler" if name.startswith("sample_") else None)
        sp = self.spans
        f_func, f_parent, f_op, f_start, f_end, f_child, f_points, f_cross = (
            sp[k] for k in _FIELDS)
        expr_layer = LAYERS.index("expr")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            cross = self.layer_stack[-1] != lid
            if not cross and not named:
                return fn(*args, **kwargs)
            idx = len(f_func)
            parent = self.stack[-1]
            f_func.append(fid)
            f_parent.append(parent)
            f_op.append(self.op)
            f_start.append(0)
            f_end.append(0)
            f_child.append(0)
            f_points.append(points(args, kwargs))
            f_cross.append(cross)
            if cross and lid == expr_layer and self.contains_open:
                self.expr_calls_in_contains += 1
            if kind == "contains":
                self.contains_open += 1
                if self.samplers_open:
                    self.contains_calls_in_samplers += 1
            elif kind == "sampler":
                self.samplers_open += 1
            self.stack.append(idx)
            self.layer_stack.append(lid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self.stack.pop()
                self.layer_stack.pop()
                f_start[idx] = t0
                f_end[idx] = t1
                if parent >= 0:
                    f_child[parent] += t1 - t0
                if kind == "contains":
                    self.contains_open -= 1
                elif kind == "sampler":
                    self.samplers_open -= 1
            if kind == "sampler":
                pairs = name == "sample_composable_pairs"
                self.sampled_points += (2 if pairs else 1) * len(result)
            return result

        return wrapper

    def _wrap_structure(self, s):
        for field in _SCALAR_EVALUATORS + _BATCH_EVALUATORS:
            fn = getattr(s, field)
            if fn is not None:
                pts = _batch_points if field in _BATCH_EVALUATORS else _one_point
                object.__setattr__(s, field, self.wrap(fn, "poisson", field, pts))
        return s

    def _count_expm(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op >= 0:
                self.expm_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every psgroupoid module in place. Spans are recorded from
        the next ``begin_op``; structures built before ``install`` keep
        unwrapped evaluators, so install before building any."""
        package = importlib.import_module("psgroupoid")
        modules = {layer: importlib.import_module(f"psgroupoid.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                points = _array_points if (layer, name) == ("expr", "evaluate_array") else _one_point
                wrapped = self.wrap(fn, layer, name, points)
                if layer == "poisson" and name in _STRUCTURE_CONSTRUCTORS:
                    wrapped = self._structure_returning(wrapped)
                replaced[id(fn)] = wrapped
        # rebind every module-level reference, including names imported
        # with ``from .module import name``
        for mod in [package, *modules.values()]:
            for name, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, name, replaced[id(value)])
        ps_cls = modules["poisson"].PoissonStructure
        for name in ("alpha_at", "dalpha_at"):
            setattr(ps_cls, name, self.wrap(getattr(ps_cls, name), "poisson",
                                            name, _batch_points))
        lie = modules["lie_dual"]
        lie.expm = self._count_expm(lie.expm)

    def _structure_returning(self, constructor):
        @functools.wraps(constructor)
        def wrapper(*args, **kwargs):
            return self._wrap_structure(constructor(*args, **kwargs))
        return wrapper

    # -- results ----------------------------------------------------------

    def export(self) -> dict:
        """Spans and counters as plain lists (for merging across
        processes)."""
        out = {k: self.spans[k].tolist() for k in _FIELDS}
        out["func_names"] = self.func_names
        out["counters"] = self.counters()
        return out

    def counters(self) -> dict:
        return {
            "expr_calls_in_contains": self.expr_calls_in_contains,
            "contains_calls_in_samplers": self.contains_calls_in_samplers,
            "sampled_points": self.sampled_points,
            "expm_calls": self.expm_calls,
        }

    def merge(self, exported: dict, op_id: int):
        """Append the spans of another process's tracer as operation
        ``op_id``, re-keying function ids and parents."""
        fmap = [self._merge_func_id(name) for name in exported["func_names"]]
        base = len(self.spans["func"])
        sp = self.spans
        for k in range(len(exported["func"])):
            parent = exported["parent"][k]
            sp["func"].append(fmap[exported["func"][k]])
            sp["parent"].append(parent + base if parent >= 0 else -1)
            sp["op"].append(op_id)
            for key in ("start", "end", "child", "points", "cross"):
                sp[key].append(exported[key][k])
        for key, value in exported["counters"].items():
            setattr(self, key, getattr(self, key) + value)

    def _merge_func_id(self, full_name: str) -> int:
        if full_name in self.func_names:
            return self.func_names.index(full_name)
        layer, _, name = full_name.partition(".")
        return self._func_id(layer, name)

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times over every recorded span."""
        sp = self.spans
        n_layers = len(LAYERS)
        calls = [0] * n_layers
        points = [0] * n_layers
        self_ns = [0] * n_layers
        func_self = {}
        func_total = {}
        func_calls = {}
        for k in range(len(sp["func"])):
            fid = sp["func"][k]
            lid = self.func_layer[fid]
            total = sp["end"][k] - sp["start"][k]
            own = total - sp["child"][k]
            self_ns[lid] += own
            name = self.func_names[fid]
            func_self[name] = func_self.get(name, 0) + own
            func_total[name] = func_total.get(name, 0) + total
            func_calls[name] = func_calls.get(name, 0) + 1
            if sp["cross"][k]:
                calls[lid] += 1
                points[lid] += sp["points"][k]
        out = {}
        for lid, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[lid]
            out[f"{layer}.self_s"] = self_ns[lid] / 1e9
        for layer in ("expr", "poisson"):
            lid = LAYERS.index(layer)
            out[f"{layer}.points_per_call"] = points[lid] / calls[lid] if calls[lid] else 0.0
        for layer, names in NAMED.items():
            for name in names:
                out[f"{layer}.{name}.self_s"] = func_self.get(f"{layer}.{name}", 0) / 1e9
        contains = func_calls.get("groupoid2d.contains", 0)
        out["groupoid2d.contains.calls"] = contains
        out["groupoid2d.expr_calls_per_contains"] = (
            self.expr_calls_in_contains / contains if contains else 0.0)
        out["groupoid2d.sample_accept_ratio"] = (
            self.sampled_points / self.contains_calls_in_samplers
            if self.contains_calls_in_samplers else 0.0)
        out["lie_dual.expm_calls"] = self.expm_calls
        out["cli.main_s"] = func_total.get("cli.main", 0) / 1e9
        return out

    def write(self, path):
        """One tab-separated line per span: op, span, parent, function,
        start_ns, end_ns, points, crossed-module flag."""
        sp = self.spans
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tfunction\tstart_ns\tend_ns\tpoints\tcross\n")
            for k in range(len(sp["func"])):
                fh.write(f"{sp['op'][k]}\t{k}\t{sp['parent'][k]}\t"
                         f"{self.func_names[sp['func'][k]]}\t{sp['start'][k]}\t"
                         f"{sp['end'][k]}\t{sp['points'][k]}\t{sp['cross'][k]}\n")


def dump(tracer: Tracer, path):
    with open(path, "w") as fh:
        json.dump(tracer.export(), fh)
