"""Polynomial-time solvers for special preference/graph combinations.

Each solver has a guard (preference class, graph shape) and raises
GuardError when invoked outside it; the dispatcher only routes matching
instances here.  All solvers produce complete allocations.
"""

from __future__ import annotations

from .errors import require
from .graphs import (
    GraphKind,
    classify_graph,
    longest_path_labels,
    topological_order,
)
from .model import (
    Allocation,
    FairnessNotion,
    Instance,
    SolveResult,
    classify_preferences,
    verify_fairness,
)


def solve_gef_dag(inst: Instance) -> SolveResult:
    """Weak notion on an acyclic graph: hand everything to one source.

    A source has no incoming arcs, so nobody compares against its bundle,
    and every other agent holds nothing, which the weak notion tolerates.
    Always feasible (unless there are resources but no agents).
    """
    graph = classify_graph(inst)
    require(graph.kind is GraphKind.ACYCLIC, "acyclic graph required")
    if inst.n == 0:
        if inst.m == 0:
            return SolveResult.feasible(inst, Allocation({}))
        return SolveResult.infeasible()
    target = min(graph.sources)  # a DAG always has a source
    return SolveResult.feasible(
        inst, Allocation({r: target for r in range(inst.m)})
    )


def solve_gef_id01_scc(inst: Instance) -> SolveResult:
    """Identical 0/1 preferences, strongly connected graph, weak notion.

    Everyone values every resource at 1 (zero columns must be stripped
    first), and strong connectivity forces equal bundle sizes, so the
    instance is feasible exactly when n divides m.  The witness deals
    resources out in contiguous runs of m/n.
    """
    prefs = classify_preferences(inst)
    require(prefs.identical and prefs.zero_one, "identical 0/1 preferences required")
    graph = classify_graph(inst)
    require(
        graph.kind is GraphKind.STRONGLY_CONNECTED or inst.n <= 1,
        "strongly connected graph required",
    )
    if inst.n and inst.m:
        require(int(inst.utilities.min()) > 0, "zero-valued resources must be stripped")
    if inst.n == 0:
        return (
            SolveResult.feasible(inst, Allocation({}))
            if inst.m == 0
            else SolveResult.infeasible()
        )
    if inst.m % inst.n != 0:
        return SolveResult.infeasible()
    share = inst.m // inst.n
    assignment = {r: r // share for r in range(inst.m)} if share else {}
    return SolveResult.feasible(inst, Allocation(assignment))


def solve_sgef_id01(inst: Instance) -> SolveResult:
    """Strict notion with identical 0/1 preferences, complete goal.

    With one agent everything goes to it.  Any cycle is infeasible: along a
    cycle bundle sizes would have to strictly decrease.  On an acyclic graph
    agent w needs a bundle strictly larger than each agent it watches, and
    the longest-path label l(w) (length of the longest path starting at w)
    is the least bundle size that works; feasibility is m >= sum of labels.
    Leftover resources go to the lowest-index agent with no incoming arc.
    """
    prefs = classify_preferences(inst)
    require(prefs.identical and prefs.zero_one, "identical 0/1 preferences required")
    if inst.n and inst.m:
        require(int(inst.utilities.min()) > 0, "zero-valued resources must be stripped")
    if inst.n == 0:
        return (
            SolveResult.feasible(inst, Allocation({}))
            if inst.m == 0
            else SolveResult.infeasible()
        )
    if inst.n == 1:
        return SolveResult.feasible(inst, Allocation({r: 0 for r in range(inst.m)}))
    graph = classify_graph(inst)
    if graph.kind is not GraphKind.ACYCLIC:
        return SolveResult.infeasible()
    labels = longest_path_labels(inst)
    if sum(labels) > inst.m:
        return SolveResult.infeasible()
    assignment = {}
    next_r = 0
    for agent in range(inst.n):
        for _ in range(labels[agent]):
            assignment[next_r] = agent
            next_r += 1
    leftovers_to = min(graph.sources)
    for r in range(next_r, inst.m):
        assignment[r] = leftovers_to
    return SolveResult.feasible(inst, Allocation(assignment))


def solve_sgef_identical_manyvalues(inst: Instance) -> SolveResult:
    """Strict notion, identical preferences, acyclic graph, and more distinct
    resource values than agents.  Always feasible: pick the n largest
    distinct values, assign one such resource per agent so that values
    strictly decrease along a topological order, and dump the rest on the
    lowest-index source.
    """
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    if inst.n and inst.m:
        require(int(inst.utilities.min()) > 0, "zero-valued resources must be stripped")
    if inst.n == 0:
        return (
            SolveResult.feasible(inst, Allocation({}))
            if inst.m == 0
            else SolveResult.infeasible()
        )
    if inst.n == 1:
        return SolveResult.feasible(inst, Allocation({r: 0 for r in range(inst.m)}))
    graph = classify_graph(inst)
    require(graph.kind is GraphKind.ACYCLIC, "acyclic graph required")
    row = [int(v) for v in inst.utilities[0]]
    require(len(set(row)) > inst.n, "needs more distinct values than agents")

    chosen: dict[int, int] = {}  # value -> lowest-index resource carrying it
    for r, v in enumerate(row):
        if v not in chosen:
            chosen[v] = r
    top_values = sorted(chosen, reverse=True)[: inst.n]
    picks = [chosen[v] for v in top_values]  # strictly decreasing values

    order = topological_order(inst)
    assignment = {picks[pos]: agent for pos, agent in enumerate(order)}
    leftovers_to = min(graph.sources)
    for r in range(inst.m):
        if r not in assignment:
            assignment[r] = leftovers_to
    result = SolveResult.feasible(inst, Allocation(assignment))
    assert verify_fairness(inst, result.allocation, FairnessNotion.STRICT) is None
    return result


def solve_efficient_dag(inst: Instance) -> SolveResult:
    """Greedy round-robin for the weak notion on an acyclic graph.

    While resources remain: drop agents that value every remaining resource
    at zero; among the survivors with no incoming arc from other survivors
    (the fringe), find the first remaining resource one of them values, and
    give it to the fringe agent valuing it most (ties to the lowest index).
    Resources no fringe agent values wait for the watchers to retire, and
    resources nobody values stay unassigned; handing them to a zero-value
    fringe agent could block a dominating allocation.  The outcome is
    weakly fair and Pareto-efficient; under 0/1 preferences its welfare
    meets the column-maximum bound.
    """
    graph = classify_graph(inst)
    require(graph.kind is GraphKind.ACYCLIC, "acyclic graph required")
    n, m = inst.n, inst.m
    remaining = list(range(m))
    assignment: dict[int, int] = {}
    arcs = inst.arc_pairs()
    while remaining:
        active = [
            a
            for a in range(n)
            if any(int(inst.utilities[a, r]) > 0 for r in remaining)
        ]
        if not active:
            break
        active_set = set(active)
        watched = {b for a, b in arcs if a in active_set and b in active_set}
        fringe = [a for a in active if a not in watched]
        # a DAG's nonempty active set has a fringe agent, and every active
        # agent values some remaining resource, so a pick always exists
        r = next(
            r
            for r in remaining
            if any(int(inst.utilities[a, r]) > 0 for a in fringe)
        )
        remaining.remove(r)
        best = max(fringe, key=lambda a: (int(inst.utilities[a, r]), -a))
        assignment[r] = best
    return SolveResult.feasible(inst, Allocation(assignment))
