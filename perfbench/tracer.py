"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces each traced function at every module attribute of the
package that refers to it, so a caller that looks the name up at call time
(``dispatch.solve_ilp``, ``exact._kernels.search``, ``cli.parse_validate``)
runs the wrapper.  Leaving the ``with`` block puts every original back.

A span is ``(request, span_id, parent_id, name, start, end, info, route)``;
spans of one benchmark solve share the request number.  ``info`` holds the
node count, the selected algorithm or the embedding hit a layer returned, and
``route`` names the solver route a span stands for, if any.  Spans stay in
memory; :func:`summarize` turns them into the per-layer figures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "gefalloc"


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _nodes(result) -> int:
    return int(getattr(result, "nodes", 0))


@dataclass(frozen=True)
class Target:
    module: str                   # defining module, relative to the package
    func: str
    name: str                     # span name, or a prefix refined by ``label``
    route: Optional[str] = None   # route name when this span is a solver route
    label: Optional[Callable] = None
    info: Optional[Callable] = None


def _kernel_label(args, kwargs) -> str:
    mode = int(_arg(args, kwargs, 4, "mode"))
    return "kernels.search.scan" if mode == 1 else "kernels.search.first_fit"


def _brute_label(args, kwargs) -> str:
    return "exact.brute_force." + _arg(args, kwargs, 2, "goal").value


SPANS = (
    Target("_kernels", "search", "kernels.search", label=_kernel_label,
           info=lambda out: int(out[3])),
    Target("exact", "brute_force", "exact.brute_force", route="brute",
           label=_brute_label, info=_nodes),
    Target("exact", "solve_ilp", "exact.solve_ilp", route="ilp"),
    Target("exact", "solve_type_ilp", "exact.solve_type_ilp", info=_nodes),
    Target("exact", "solve_sgef_fpt_resources", "exact.solve_sgef_fpt_resources",
           route="sgef-fpt"),
    Target("exact", "solve_identical_enum", "exact.solve_identical_enum",
           route="ident-enum"),
    Target("model", "strip_zero_resources", "model.strip_zero_resources"),
    Target("model", "classify_preferences", "model.classify_preferences"),
    Target("model", "parse_validate", "model.parse_validate"),
    Target("graphs", "scc_condensation", "graphs.scc_condensation"),
    Target("graphs", "classify_graph", "graphs.classify_graph"),
    Target("dispatch", "select_algorithm", "dispatch.select_algorithm",
           info=lambda out: out),
    Target("dispatch", "solve", "dispatch.solve"),
    Target("cli", "main", "cli.main"),
    Target("poly", "solve_gef_dag", "poly.solve_gef_dag", route="dag"),
    Target("poly", "solve_sgef_id01", "poly.solve_sgef_id01", route="alg1"),
    Target("poly", "solve_gef_id01_scc", "poly.solve_gef_id01_scc", route="scc-id01"),
    Target("poly", "solve_sgef_identical_manyvalues",
           "poly.solve_sgef_identical_manyvalues", route="manyvalues"),
    Target("poly", "solve_efficient_dag", "poly.solve_efficient_dag", route="alg2"),
    Target("efficiency", "solve_efficient", "efficiency.solve_efficient"),
    Target("structures", "solve_gef_identical_structures",
           "structures.solve_gef_identical_structures", route="struct-fpt"),
    Target("structures", "directed_colored_subiso", "structures.directed_colored_subiso",
           info=lambda out: out is not None),
)
# counted, not timed: a span per call would split brute force's self time
COUNTS = (Target("model", "verify_fairness", "model.verify_fairness"),)

ROUTES = tuple(t.route for t in SPANS if t.route) + ("immediate-infeasible",)


def package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Context manager that wraps the SPANS and COUNTS targets in the
    already imported package; ``missing`` lists targets it did not find.
    While ``paused`` is set the wrappers record nothing."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.paused = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _span_wrapper(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            name = target.label(args, kwargs) if target.label else target.name
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                info = target.info(out) if target.info and out is not None else None
                spans[sid] = (self.request, sid, parent, name, start, end, info,
                              target.route)

        return wrapper

    def _count_wrapper(self, fn, target: Target):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[target.name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        plan = [(t, self._span_wrapper) for t in SPANS]
        plan += [(t, self._count_wrapper) for t in COUNTS]
        for target, make in plan:
            home = sys.modules.get(f"{PACKAGE}.{target.module}")
            original = getattr(home, target.func, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.func}")
                continue
            wrapper = make(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _ratio(num: float, den: float) -> dict:
    return {"num": num, "den": den, "value": num / den if den else 0.0}


# layers reported by self time, under "<span name>_s"
SELF_TIMED = (
    "kernels.search.scan", "kernels.search.first_fit",
    "exact.brute_force.pareto", "exact.brute_force.welfare",
    "exact.brute_force.complete", "exact.solve_type_ilp",
    "exact.solve_sgef_fpt_resources", "exact.solve_identical_enum",
    "model.strip_zero_resources", "model.classify_preferences",
    "model.parse_validate", "graphs.scc_condensation", "graphs.classify_graph",
    "dispatch.select_algorithm", "poly.solve_gef_dag", "poly.solve_sgef_id01",
    "poly.solve_gef_id01_scc", "poly.solve_sgef_identical_manyvalues",
    "poly.solve_efficient_dag", "efficiency.solve_efficient",
    "structures.solve_gef_identical_structures",
)
PER_SOLVE_CALLS = (
    "model.strip_zero_resources", "model.classify_preferences",
    "graphs.scc_condensation", "graphs.classify_graph",
)
KERNEL = ("kernels.search.scan", "kernels.search.first_fit")


def _routes(spans) -> Counter:
    """Routes that ran, per solve.  A route counts when no enclosing span is
    itself a route; a solve with no route span ran none, which is right only
    when select_algorithm answered "immediate-infeasible"."""
    in_route = [False] * len(spans)
    ran: dict[int, list[str]] = {}
    pick: dict[int, object] = {}
    for req, sid, parent, name, _, _, info, route in spans:
        outer = parent >= 0 and in_route[parent]
        in_route[sid] = outer or route is not None
        ran.setdefault(req, [])
        if route and not outer:
            ran[req].append(route)
        if name == "dispatch.select_algorithm":
            pick[req] = info
    routes: Counter = Counter()
    for req, names in ran.items():
        if names:
            routes.update(names)
        elif pick.get(req) == "immediate-infeasible":
            routes["immediate-infeasible"] += 1
        else:
            routes["unattributed"] += 1
    return routes


def summarize(tracer: Tracer, passes: int, corpus_size: int,
              traced_s: float, untraced_s: float):
    """Per-layer figures: ``(metrics, ratios, routes)``.

    Times, calls, nodes and route counts are per pass of the corpus (totals
    over the traced run divided by ``passes``); ratios are of run totals.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, _, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    nodes: Counter = Counter()
    for _, sid, _, name, start, end, info, _ in spans:
        total_s[name] += end - start
        self_s[name] += end - start - child[sid]
        calls[name] += 1
        if type(info) is int:
            nodes[name] += info

    # a fallback is brute force called by solve_efficient after another route
    # it called gave no answer for the goal
    tried: set[int] = set()
    fallbacks = 0
    for _, sid, parent, name, _, _, _, route in spans:
        if parent < 0 or spans[parent][3] != "efficiency.solve_efficient":
            continue
        if route == "brute" and parent in tried:
            fallbacks += 1
        if route or name == "dispatch.solve":
            tried.add(parent)
    subiso = "structures.directed_colored_subiso"
    hits = sum(1 for s in spans if s[3] == subiso and s[6])
    ratios = {
        "kernels.nodes_per_s": _ratio(
            sum(nodes[k] for k in KERNEL), sum(self_s[k] for k in KERNEL)),
        "efficiency.brute_fallback_ratio": _ratio(
            fallbacks, calls["efficiency.solve_efficient"]),
        "structures.embed_hit_ratio": _ratio(hits, calls[subiso]),
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
    }
    for name in PER_SOLVE_CALLS:
        ratios[name + "_calls_per_solve"] = _ratio(calls[name], passes * corpus_size)

    m = {name + "_s": (self_s[name] / passes, "s") for name in SELF_TIMED}
    m["kernels.search_calls"] = (sum(calls[k] for k in KERNEL) / passes, "count")
    m["kernels.nodes"] = (sum(nodes[k] for k in KERNEL) / passes, "count")
    m["exact.brute_force.pareto_nodes"] = (nodes["exact.brute_force.pareto"] / passes, "count")
    m["exact.solve_type_ilp_nodes"] = (nodes["exact.solve_type_ilp"] / passes, "count")
    m["dispatch.solve_self_s"] = (self_s["dispatch.solve"] / passes, "s")
    m["cli.main_s"] = (total_s["cli.main"] / passes, "s")  # inclusive: whole CLI solves
    m["cli.self_s"] = (self_s["cli.main"] / passes, "s")
    m[subiso + "_calls"] = (calls[subiso] / passes, "count")
    m["model.verify_fairness_calls"] = (
        tracer.counts["model.verify_fairness"] / passes, "count")
    for name, r in ratios.items():
        m[name] = (r["value"], "1/s" if name.endswith("_per_s") else "ratio")
    routes = _routes(spans)
    for route in ROUTES:
        m["dispatch.route." + route] = (routes[route] / passes, "count")
    return m, ratios, dict(routes)
