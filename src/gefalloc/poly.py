"""Polynomial-time solvers for special preference/graph combinations.

Each solver is correct only under the condition its docstring states.  The
row of ``dispatch.ROUTES`` that runs it is where that condition is checked,
so a solver called directly outside it may answer wrongly.  Graph facts come
in as the ``GraphClass`` the route already holds.  Every solver but
``solve_efficient_dag`` produces a complete allocation.
"""

from __future__ import annotations

from .graphs import GraphClass, GraphKind
from .model import (
    Allocation,
    FairnessNotion,
    Instance,
    SolveResult,
    verify_fairness,
)


def solve_gef_dag(inst: Instance, graph: GraphClass) -> SolveResult:
    """Weak notion, acyclic graph, at least one agent: hand everything to
    one source.

    A source has no incoming arcs, so nobody compares against its bundle,
    and every other agent holds nothing, which the weak notion tolerates.
    Always feasible.
    """
    target = min(graph.sources)  # a DAG always has a source
    return SolveResult.feasible(
        inst, Allocation({r: target for r in range(inst.m)})
    )


def solve_gef_id01_scc(inst: Instance) -> SolveResult:
    """Weak notion, identical 0/1 preferences with every resource valued 1,
    strongly connected graph (or one agent).

    Strong connectivity forces equal bundle sizes, so the instance is
    feasible exactly when n divides m.  The witness deals resources out in
    contiguous runs of m/n.
    """
    if inst.m % inst.n != 0:
        return SolveResult.infeasible()
    share = inst.m // inst.n
    return SolveResult.feasible(
        inst, Allocation({r: r // share for r in range(inst.m)})
    )


def solve_sgef_id01(inst: Instance, graph: GraphClass) -> SolveResult:
    """Strict notion, identical 0/1 preferences with every resource valued 1,
    at least one agent, complete goal.

    Any cycle is infeasible: along a cycle bundle sizes would have to
    strictly decrease.  On an acyclic graph agent w needs a bundle strictly
    larger than each agent it watches, and the longest-path label l(w)
    (length of the longest path starting at w) is the least bundle size that
    works; feasibility is m >= sum of labels.  Leftover resources go to the
    lowest-index agent with no incoming arc.
    """
    if graph.kind is not GraphKind.ACYCLIC:
        return SolveResult.infeasible()
    labels = graph.labels
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


def solve_sgef_identical_manyvalues(inst: Instance, graph: GraphClass) -> SolveResult:
    """Identical positive preferences, acyclic graph, at least one agent,
    and more distinct resource values than agents.  Always strictly (hence
    also weakly) fair: pick the n largest distinct values, assign one such
    resource per agent so that values strictly decrease along a topological
    order, and dump the rest on the lowest-index source.
    """
    row = [int(v) for v in inst.utilities[0]]
    chosen: dict[int, int] = {}  # value -> lowest-index resource carrying it
    for r, v in enumerate(row):
        if v not in chosen:
            chosen[v] = r
    top_values = sorted(chosen, reverse=True)[: inst.n]
    picks = [chosen[v] for v in top_values]  # strictly decreasing values

    assignment = {picks[pos]: agent for pos, agent in enumerate(graph.order)}
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

    The fringe changes only when an agent's count of remaining valued
    resources reaches zero, so each of at most n such phases is one forward
    sweep over the resources: O(n*m) per phase, O(n^2*m) in all.
    """
    n, m = inst.n, inst.m
    util = inst.utilities.tolist()
    valuers = [[a for a, v in enumerate(col) if v] for col in zip(*util)]
    left = [m - row.count(0) for row in util]  # remaining valued resources
    assignment: dict[int, int] = {}
    arcs = inst.arc_pairs()
    while any(left):
        watched = {b for a, b in arcs if left[a] and left[b]}
        fringe = [bool(left[a]) and a not in watched for a in range(n)]
        # on a DAG the survivors have a fringe agent, and the sweep hands
        # out its valued resources, so every sweep ends with a retirement
        for r in range(m):
            if r in assignment:
                continue
            bidders = [a for a in valuers[r] if fringe[a]]
            if not bidders:
                continue
            # bidders ascend, so max keeps the lowest index among ties
            assignment[r] = max(bidders, key=lambda a: util[a][r])
            for a in valuers[r]:
                left[a] -= 1
            if not all(left[a] for a in valuers[r]):
                break
        else:
            break  # no fringe agent: the graph has a cycle among survivors
    return SolveResult.feasible(inst, Allocation(assignment))
