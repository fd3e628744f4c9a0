"""Per-layer attribution for a traced pass, installed from outside oddwalk.

`install()` replaces public functions of the oddwalk modules, and methods of
their classes, with wrappers.  A span wrapper times the call and charges its
self time (duration minus the time of spans it encloses) to one metric; a
counter wrapper only counts.  Work counts are read from arguments, return
values and the gadget cache's `cache_info()`.  Layers are named after the
modules; the table below says which function feeds which metric.

Every binding of a wrapped function in every oddwalk module is replaced,
because the modules import each other's names directly.  A name the table
lists but the program no longer has is reported as missing, not fatal, so a
renamed function shows up as a layer that went to zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

# every per-layer metric with its unit, in report order
LAYER_UNITS = {
    "cli.self_ms": "ms", "cli.stdout_bytes": "bytes",
    "graphs.load_ms": "ms", "graphs.neighbors_calls": "count",
    "parity.bfs_calls": "count", "parity.bfs_nodes": "count",
    "parity.bfs_ms": "ms", "parity.phi_calls": "count",
    "parity.phi_distinct_ratio": "ratio", "parity.exact_walk_ms": "ms",
    "coloring.calls": "count", "coloring.ms": "ms",
    "gadget.build_calls": "count", "gadget.build_ms": "ms",
    "gadget.cache_hit_ratio": "ratio", "gadget.vertices_materialized": "count",
    "gadget.max_vertices": "count",
    "kernels.propagate_calls": "count", "kernels.propagate_ms": "ms",
    "kernels.positions_swept": "count", "kernels.native_call_share": "ratio",
    "homset.count_ms": "ms", "homset.is_tiny_ms": "ms",
    "homset.is_large_ms": "ms", "homset.enumerate_ms": "ms",
    "homset.homs_enumerated": "count", "homset.double_ms": "ms",
    "homset.pin_ms": "ms", "homset.extend_witness_ms": "ms",
    "homset.profile_positions": "count",
    "dichotomy.decide_ms": "ms", "dichotomy.verify_ms": "ms",
    "dichotomy.verify_checks": "count", "dichotomy.levels_built": "count",
    "dichotomy.to_json_ms": "ms",
    "limitgraph.query_calls": "count", "limitgraph.query_ms": "ms",
    "limitgraph.quotient_ms": "ms",
    "equiv.plan_ms": "ms", "equiv.verify_ms": "ms", "equiv.verify_checks": "count",
    "render.ms": "ms",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.stack: list[float] = []    # time of enclosed spans, per open span
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self.op = 0
        self.phi_keys: set = set()
        self.max_vertices = 0
        self.missing: list[str] = []

    def span(self, metric, fn, calls=None, before=None, after=None):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            token = before() if before else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[metric] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
            if calls:
                counts[calls] += 1
            if after:
                after(args, result, token)
            return result
        return wrapper

    def counter(self, name, fn, after=None):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after:
                after(args, result, None)
            return result
        return wrapper


def _replace(modules, owner, name, make):
    """Wrap owner.name and rebind every module-level alias of it."""
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return False
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))
        return True
    new = make(raw)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is raw:
                setattr(mod, key, new)
    return True


def install() -> Tracer:
    """Wrap the layer boundaries of the already imported oddwalk package."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "oddwalk" or n.startswith("oddwalk.")) and m is not None]
    mod = {m.__name__.split(".", 1)[-1]: m for m in modules}
    tr = Tracer()
    c = tr.counts

    def bfs_after(args, result, _):
        c["parity.bfs_nodes"] += len(result)

    def phi_after(args, result, _):
        vset = frozenset(args[1]) if len(args) > 1 else None
        tr.phi_keys.add((tr.op, id(args[0]), vset))

    def kernel_after(args, result, _):
        c["kernels.positions_swept"] += len(args[0])
        if mod["kernels"].backend_for(args[3], args[4]) == "native":
            c["kernels.native_calls"] += 1

    cache = getattr(mod["gadget"], "_build", None)
    cache_info = getattr(cache, "cache_info", None)

    def gadget_before():
        return cache_info().misses if cache_info else None

    def gadget_after(args, result, misses):
        if misses is None or cache_info().misses > misses:
            c["gadget.builds"] += 1
            c["gadget.vertices_materialized"] += result.vertex_count
            tr.max_vertices = max(tr.max_vertices, result.vertex_count)

    def levels_after(args, result, _):
        c["dichotomy.levels_built"] += len(getattr(result, "levels", ()))

    def checks(metric):
        def after(args, result, _):
            c[metric] += result.checks
        return after

    def enum_after(args, result, _):
        c["homset.homs_enumerated"] += len(result[0].homs)

    def profile_after(args, result, _):
        c["homset.profile_positions"] += len(args[0].vmasks)

    # (module, class or None, function, metric charged with its self time,
    #  span options)
    spans = [
        ("cli", None, "main", "cli.self_ms", {}),
        ("graphs", "WitnessedGraph", "from_text", "graphs.load_ms", {}),
        ("parity", None, "parity_distances", "parity.bfs_ms",
         {"calls": "parity.bfs_calls", "after": bfs_after}),
        ("parity", None, "phi_bound", "parity.bfs_ms",
         {"calls": "parity.phi_calls", "after": phi_after}),
        ("parity", None, "phi_holds", "parity.bfs_ms", {}),
        ("parity", None, "vertex_odd_girth", "parity.bfs_ms", {}),
        ("parity", None, "nonbipartite_vertices", "parity.bfs_ms", {}),
        ("parity", None, "min_odd_closed_walk", "parity.bfs_ms", {}),
        ("parity", None, "bipartite_certificate", "parity.bfs_ms", {}),
        ("parity", None, "exact_walk", "parity.exact_walk_ms", {}),
        ("parity", None, "exact_reach", "parity.exact_walk_ms", {}),
        # colorings are built in coloring and, for decide, by parity's
        # component 2-coloring; the CLI checks them with Coloring methods
        ("parity", None, "two_color_components", "coloring.ms",
         {"calls": "coloring.calls"}),
        ("graphs", "Coloring", "covers", "coloring.ms", {"calls": "coloring.calls"}),
        ("graphs", "Coloring", "is_proper", "coloring.ms",
         {"calls": "coloring.calls"}),
        ("gadget", None, "build_gadget", "gadget.build_ms",
         {"calls": "gadget.build_calls", "before": gadget_before,
          "after": gadget_after}),
        ("kernels", None, "path_propagate", "kernels.propagate_ms",
         {"calls": "kernels.propagate_calls", "after": kernel_after}),
        ("homset", "HomProfile", "count", "homset.count_ms", {}),
        ("homset", None, "is_tiny", "homset.is_tiny_ms", {}),
        ("homset", None, "is_large", "homset.is_large_ms", {}),
        ("homset", "HomProfile", "enumerate_homs", "homset.enumerate_ms",
         {"after": enum_after}),
        ("homset", None, "double", "homset.double_ms", {}),
        ("homset", None, "pin", "homset.pin_ms", {}),
        ("homset", None, "extend_witness", "homset.extend_witness_ms", {}),
        ("dichotomy", None, "decide", "dichotomy.decide_ms",
         {"after": levels_after}),
        ("dichotomy", None, "verify_tower", "dichotomy.verify_ms",
         {"after": checks("dichotomy.verify_checks")}),
        ("dichotomy", "Tower", "to_json_dict", "dichotomy.to_json_ms", {}),
        ("limitgraph", None, "level_quotient", "limitgraph.quotient_ms", {}),
        ("limitgraph", "LevelQuotient", "to_json_dict", "limitgraph.quotient_ms", {}),
        ("equiv", None, "plan_equivalence", "equiv.plan_ms", {}),
        ("equiv", None, "verify_equivalence", "equiv.verify_ms",
         {"after": checks("equiv.verify_checks")}),
    ]
    for name in ("adjacent", "neighbors", "same_component", "project_level",
                 "odd_sibling_obstruction"):
        spans.append(("limitgraph", None, name, "limitgraph.query_ms",
                      {"calls": "limitgraph.query_calls"}))
    for name in ("bipartite_superset_coloring", "two_color_from_cover",
                 "invariant_closure", "greedy_coloring", "pullback_coloring"):
        spans.append(("coloring", None, name, "coloring.ms",
                      {"calls": "coloring.calls"}))
    for name in ("gadget_to_dot", "gadget_to_tikz", "gadget_to_json_dict",
                 "gadget_to_text", "graph_to_dot", "graph_to_tikz",
                 "quotient_to_dot"):
        spans.append(("render", None, name, "render.ms", {}))
    counters = [
        ("graphs", "WitnessedGraph", "neighbors", "graphs.neighbors_calls", None),
        ("homset", "HomProfile", "__init__", "homset.profiles", profile_after),
    ]

    wrappers = [(m, cls, f, lambda fn, metric=metric, opts=opts:
                 tr.span(metric, fn, **opts))
                for m, cls, f, metric, opts in spans]
    wrappers += [(m, cls, f, lambda fn, metric=metric, after=after:
                  tr.counter(metric, fn, after))
                 for m, cls, f, metric, after in counters]
    for modname, clsname, fname, make in wrappers:
        owner = mod.get(modname)
        if owner is not None and clsname:
            owner = getattr(owner, clsname, None)
        if owner is None or not _replace(modules, owner, fname, make):
            tr.missing.append(".".join(filter(None, (modname, clsname, fname))))
    return tr


def layer_metrics(tr: Tracer, wall_s: float, stdout_bytes: int) -> dict:
    """Per-layer values of one traced pass (trace.overhead_frac excepted)."""
    ms = {k: v * 1e3 for k, v in tr.self_s.items()}
    c = tr.counts

    def ratio(num, den):
        return num / den if den else 0.0

    gadget_calls = c["gadget.build_calls"]
    out = {
        "cli.self_ms": ms.get("cli.self_ms", 0.0),
        "cli.stdout_bytes": stdout_bytes,
        "graphs.load_ms": ms.get("graphs.load_ms", 0.0),
        "graphs.neighbors_calls": c["graphs.neighbors_calls"],
        "parity.bfs_calls": c["parity.bfs_calls"],
        "parity.bfs_nodes": c["parity.bfs_nodes"],
        "parity.bfs_ms": ms.get("parity.bfs_ms", 0.0),
        "parity.phi_calls": c["parity.phi_calls"],
        "parity.phi_distinct_ratio": ratio(len(tr.phi_keys), c["parity.phi_calls"]),
        "parity.exact_walk_ms": ms.get("parity.exact_walk_ms", 0.0),
        "coloring.calls": c["coloring.calls"],
        "coloring.ms": ms.get("coloring.ms", 0.0),
        "gadget.build_calls": gadget_calls,
        "gadget.build_ms": ms.get("gadget.build_ms", 0.0),
        "gadget.cache_hit_ratio": ratio(gadget_calls - c["gadget.builds"],
                                        gadget_calls),
        "gadget.vertices_materialized": c["gadget.vertices_materialized"],
        "gadget.max_vertices": tr.max_vertices,
        "kernels.propagate_calls": c["kernels.propagate_calls"],
        "kernels.propagate_ms": ms.get("kernels.propagate_ms", 0.0),
        "kernels.positions_swept": c["kernels.positions_swept"],
        "kernels.native_call_share": ratio(c["kernels.native_calls"],
                                           c["kernels.propagate_calls"]),
        "homset.count_ms": ms.get("homset.count_ms", 0.0),
        "homset.is_tiny_ms": ms.get("homset.is_tiny_ms", 0.0),
        "homset.is_large_ms": ms.get("homset.is_large_ms", 0.0),
        "homset.enumerate_ms": ms.get("homset.enumerate_ms", 0.0),
        "homset.homs_enumerated": c["homset.homs_enumerated"],
        "homset.double_ms": ms.get("homset.double_ms", 0.0),
        "homset.pin_ms": ms.get("homset.pin_ms", 0.0),
        "homset.extend_witness_ms": ms.get("homset.extend_witness_ms", 0.0),
        "homset.profile_positions": c["homset.profile_positions"],
        "dichotomy.decide_ms": ms.get("dichotomy.decide_ms", 0.0),
        "dichotomy.verify_ms": ms.get("dichotomy.verify_ms", 0.0),
        "dichotomy.verify_checks": c["dichotomy.verify_checks"],
        "dichotomy.levels_built": c["dichotomy.levels_built"],
        "dichotomy.to_json_ms": ms.get("dichotomy.to_json_ms", 0.0),
        "limitgraph.query_calls": c["limitgraph.query_calls"],
        "limitgraph.query_ms": ms.get("limitgraph.query_ms", 0.0),
        "limitgraph.quotient_ms": ms.get("limitgraph.quotient_ms", 0.0),
        "equiv.plan_ms": ms.get("equiv.plan_ms", 0.0),
        "equiv.verify_ms": ms.get("equiv.verify_ms", 0.0),
        "equiv.verify_checks": c["equiv.verify_checks"],
        "render.ms": ms.get("render.ms", 0.0),
        "trace.unattributed_frac": ratio(wall_s - tr.root_s, wall_s),
    }
    return out
