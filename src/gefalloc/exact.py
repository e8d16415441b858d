"""Exponential-time exact solvers.

* ``brute_force``: canonical-order enumeration of assignments, used as the
  oracle everything else is checked against.
* resource-type ILP: aggregates interchangeable resources (equal utility
  columns) into counts and searches the count space directly with a pruned
  depth-first search.  No external solver is involved.
* ``solve_identical_enum``: full enumeration for identical preferences on a
  strongly connected graph, valid because more agents than resources is
  immediately infeasible there.
* ``prune_large_sccs``: removes components that provably cannot receive
  resources, together with everything they reach.
* ``solve_sgef_fpt_resources``: strict-notion case split parameterized by
  the number of resources.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import require
from .graphs import GraphKind, classify_graph, reachable_from, scc_condensation
from .model import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    SolveResult,
    classify_preferences,
    enumerate_partial_allocations,
    utility_profile,
    verify_fairness,
)

DEFAULT_BUDGET = 10**8


def _delta(notion: FairnessNotion) -> int:
    return 1 if notion is FairnessNotion.STRICT else 0


def _result_from_kernel(inst: Instance, status, assignment, nodes) -> SolveResult:
    if status == 2:
        return SolveResult.budget(nodes)
    if status == 1:
        return SolveResult.infeasible(nodes)
    alloc = Allocation({r: int(a) for r, a in enumerate(assignment) if a >= 0})
    return SolveResult.feasible(inst, alloc, nodes)


def search_complete(
    inst: Instance,
    notion: FairnessNotion,
    candidates: Optional[Sequence[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """First fair complete assignment with owners drawn from ``candidates``."""
    if candidates is None:
        candidates = range(inst.n)
    cands = np.asarray(list(candidates), dtype=np.int64)
    if inst.m > 0 and cands.size == 0:
        return SolveResult.infeasible(0)
    status, assignment, _, nodes = _kernels.search(
        inst.utilities, inst.arcs, _delta(notion), cands, 0, budget
    )
    return _result_from_kernel(inst, status, assignment, nodes)


def brute_force(
    inst: Instance,
    notion: FairnessNotion,
    goal: EfficiencyGoal,
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Oracle solver.

    Complete goal: first fair total assignment in canonical order (resource 0
    varies slowest, agents in index order).  MaxWelfare: fair partial
    assignment of maximum welfare, lexicographically first among ties, with
    "unassigned" ordered after the last agent.  Pareto: first fair partial
    assignment not dominated by any assignment at all.
    """
    n, m = inst.n, inst.m
    if goal is EfficiencyGoal.COMPLETE:
        if n == 0:
            if m == 0:
                return SolveResult.feasible(inst, Allocation({}), 1)
            return SolveResult.infeasible(0)
        return search_complete(inst, notion, range(n), budget)

    if goal is EfficiencyGoal.MAX_WELFARE:
        cands = np.concatenate([np.arange(n, dtype=np.int64), [-1]])
        status, assignment, _, nodes = _kernels.search(
            inst.utilities, inst.arcs, _delta(notion), cands, 1, budget
        )
        return _result_from_kernel(inst, status, assignment, nodes)

    # Pareto: collect every profile, then pick the first undominated fair one.
    profiles: list[tuple[int, ...]] = []
    fair_allocs: list[Allocation] = []
    nodes = 0
    for alloc in enumerate_partial_allocations(inst):
        nodes += 1
        if nodes > budget:
            return SolveResult.budget(nodes - 1)
        profiles.append(utility_profile(inst, alloc))
        if verify_fairness(inst, alloc, notion) is None:
            fair_allocs.append(alloc)
    for alloc in fair_allocs:
        base = utility_profile(inst, alloc)
        beaten = any(
            all(x >= y for x, y in zip(p, base)) and any(x > y for x, y in zip(p, base))
            for p in profiles
        )
        if not beaten:
            return SolveResult.feasible(inst, alloc, nodes)
    return SolveResult.infeasible(nodes)


# ---------------------------------------------------------------------------
# resource-type ILP


@dataclass(frozen=True)
class ResourceTypeTable:
    """Groups resources whose utility columns coincide."""

    types: tuple[tuple[int, ...], ...]      # distinct columns, first-seen order
    multiplicity: tuple[int, ...]
    type_of: tuple[int, ...]                # resource -> type index
    members: tuple[tuple[int, ...], ...]    # type -> resource indices

    @staticmethod
    def build(inst: Instance) -> "ResourceTypeTable":
        seen: dict[tuple[int, ...], int] = {}
        type_of = []
        members: list[list[int]] = []
        for r in range(inst.m):
            col = tuple(int(v) for v in inst.utilities[:, r])
            if col not in seen:
                seen[col] = len(seen)
                members.append([])
            t = seen[col]
            type_of.append(t)
            members[t].append(r)
        types = tuple(sorted(seen, key=seen.get))
        return ResourceTypeTable(
            types,
            tuple(len(ms) for ms in members),
            tuple(type_of),
            tuple(tuple(ms) for ms in members),
        )


@dataclass(frozen=True)
class IlpModel:
    """Count-space program over x[agent][type].

    Per type an equality row fixes the total count; per attention arc (a, b)
    an inequality row demands a's bundle beats b's bundle by delta, with both
    bundles valued through a's utility row.
    """

    n: int
    table: ResourceTypeTable
    delta: int
    forbidden: frozenset[tuple[int, int]] = field(default_factory=frozenset)  # (agent, type)
    arcs: tuple[tuple[int, int], ...] = ()


def build_type_ilp(
    inst: Instance,
    notion: FairnessNotion,
    forbidden: Sequence[tuple[int, int]] = (),
) -> IlpModel:
    table = ResourceTypeTable.build(inst)
    return IlpModel(
        inst.n, table, _delta(notion), frozenset(forbidden), inst.arc_pairs()
    )


def solve_type_ilp(inst: Instance, model: IlpModel) -> SolveResult:
    """Depth-first search over type counts.

    Variable order: types by decreasing multiplicity (stable on the original
    type order), agents in index order inside a type; counts tried from 0
    upward, so the first solution is canonical.  Complete search, no budget.
    """
    n = model.n
    table = model.table
    ntypes = len(table.types)
    if n == 0:
        if sum(table.multiplicity) == 0:
            return SolveResult.feasible(inst, Allocation({}), 1)
        return SolveResult.infeasible(0)

    type_order = sorted(range(ntypes), key=lambda t: (-table.multiplicity[t], t))
    variables = [(t, i) for t in type_order for i in range(n)]
    counts = [[0] * ntypes for _ in range(n)]
    # values[x][y] = value of y's counted bundle under x's row
    values = [[0] * n for _ in range(n)]
    remaining = list(table.multiplicity)
    cap = [
        [0 if (i, t) in model.forbidden else table.multiplicity[t] for t in range(ntypes)]
        for i in range(n)
    ]
    arcs = model.arcs
    nodes = 0

    def consistent() -> bool:
        # optimistic upper bound for the envier vs. the current lower bound
        # for the target; counts already placed can only grow the target side
        for a, b in arcs:
            ub = values[a][a]
            for t in range(ntypes):
                gain = table.types[t][a]
                if gain > 0 and remaining[t] > 0 and counts[a][t] == 0:
                    # a might still take every remaining copy of t
                    ub += min(remaining[t], cap[a][t]) * gain
            if ub < values[a][b] + model.delta:
                return False
        return True

    def place(i: int, t: int, c: int) -> None:
        counts[i][t] += c
        remaining[t] -= c
        for x in range(n):
            values[x][i] += c * table.types[t][x]

    def dfs(vi: int) -> bool:
        nonlocal nodes
        nodes += 1
        if vi == len(variables):
            for a, b in arcs:
                if values[a][a] < values[a][b] + model.delta:
                    return False
            return True
        t, i = variables[vi]
        last_agent = i == n - 1
        if last_agent:
            choices = [remaining[t]] if remaining[t] <= cap[i][t] else []
        else:
            slack = sum(cap[j][t] for j in range(i + 1, n))
            lo = max(0, remaining[t] - slack)
            choices = range(lo, min(remaining[t], cap[i][t]) + 1)
        for c in choices:
            place(i, t, c)
            if consistent() and dfs(vi + 1):
                return True
            place(i, t, -c)
        return False

    if dfs(0):
        # deal concrete resources in (type, agent-index) order
        assignment = {}
        for t in range(ntypes):
            pool = list(table.members[t])
            pos = 0
            for i in range(n):
                for _ in range(counts[i][t]):
                    assignment[pool[pos]] = i
                    pos += 1
        alloc = Allocation(assignment)
        return SolveResult.feasible(inst, alloc, nodes)
    return SolveResult.infeasible(nodes)


def solve_ilp(
    inst: Instance,
    notion: FairnessNotion,
    forbidden: Sequence[tuple[int, int]] = (),
) -> SolveResult:
    return solve_type_ilp(inst, build_type_ilp(inst, notion, forbidden))


# ---------------------------------------------------------------------------
# identical preferences


def solve_identical_enum(
    inst: Instance, notion: FairnessNotion = FairnessNotion.WEAK
) -> SolveResult:
    """Identical preferences on a strongly connected graph, weak notion,
    complete goal.  With every resource positively valued, every agent must
    end up with equal, hence positive, bundle value, so n > m is immediately
    infeasible and otherwise n^m enumeration is affordable.
    """
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    graph = classify_graph(inst)
    require(
        graph.kind is GraphKind.STRONGLY_CONNECTED or inst.n <= 1,
        "strongly connected graph required",
    )
    if inst.n and inst.m:
        require(int(inst.utilities.min()) > 0, "zero-valued resources must be stripped")
    if inst.m == 0:
        if inst.n == 0:
            return SolveResult.feasible(inst, Allocation({}), 1)
        res = search_complete(inst, notion)
        return res
    if inst.n == 0:
        return SolveResult.infeasible(0)
    if inst.n > inst.m and inst.n > 1:
        return SolveResult.infeasible(0)
    return search_complete(inst, notion)


@dataclass(frozen=True)
class PruneResult:
    instance: Instance
    removed: tuple[int, ...]     # original agent indices forced to hold nothing
    kept: tuple[int, ...]        # new agent index -> original agent index


def prune_large_sccs(inst: Instance) -> PruneResult:
    """For identical preferences: repeatedly delete any strongly connected
    component with more than m agents, or with condensation in-degree larger
    than m, together with everything reachable from it.  Such a component can
    never hold resources in a fair complete allocation, and neither can
    anything it watches, so removed agents hold nothing in any witness.
    """
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    m = inst.m
    alive = set(range(inst.n))
    while True:
        sub = _induced(inst, sorted(alive))
        cond = scc_condensation(sub)
        bad = [
            ci
            for ci, comp in enumerate(cond.components)
            if len(comp) > m or cond.in_degree(ci) > m
        ]
        if not bad:
            break
        seeds = [v for ci in bad for v in cond.components[ci]]
        doomed = reachable_from(sub, seeds)
        keep_local = [v for v in range(sub.n) if v not in doomed]
        mapping = sorted(alive)
        alive = {mapping[v] for v in keep_local}
    kept = tuple(sorted(alive))
    removed = tuple(v for v in range(inst.n) if v not in alive)
    return PruneResult(_induced(inst, kept), removed, kept)


def _induced(inst: Instance, keep: Sequence[int]) -> Instance:
    keep = list(keep)
    pos = {v: i for i, v in enumerate(keep)}
    arcs = [
        (pos[a], pos[b]) for a, b in inst.arc_pairs() if a in pos and b in pos
    ]
    util = inst.utilities[keep, :] if keep else inst.utilities[:0, :]
    return Instance([inst.agents[v] for v in keep], inst.resources, util, arcs)


# ---------------------------------------------------------------------------
# strict notion, parameterized by the number of resources


def sgef_fpt_search_size(inst: Instance) -> int:
    """Upper bound on the number of assignments the case split enumerates."""
    n, m = inst.n, inst.m
    graph = classify_graph(inst)
    non_sinks = [v for v in range(n) if v not in graph.sinks]
    k = len(non_sinks)
    if m >= n:
        return n**m if m else 1
    if m < k:
        return 1
    return max(k + 1, 1) ** m


def solve_sgef_fpt_resources(
    inst: Instance, budget: int = DEFAULT_BUDGET
) -> SolveResult:
    """Strict notion, complete goal, any preferences.

    Case split on m against the number of non-sink agents k (agents with at
    least one outgoing arc, each of which needs strictly positive value):

    1. m >= n: plain n^m enumeration.
    2. m < k: infeasible.
    3. m == k: every resource must land on a non-sink agent.
    4. k < m < n with a source present: resources still only go to non-sinks.
    5. k < m < n, no source: every agent is inner or sink; guess per resource
       an inner owner or a sink "type" (the set of in-neighbours), then place
       each type's share on representative sinks of that type.
    """
    n, m = inst.n, inst.m
    notion = FairnessNotion.STRICT
    if n == 0:
        if m == 0:
            return SolveResult.feasible(inst, Allocation({}), 1)
        return SolveResult.infeasible(0)
    if m >= n:
        return search_complete(inst, notion, range(n), budget)
    graph = classify_graph(inst)
    sinks = set(graph.sinks)
    non_sinks = [v for v in range(n) if v not in sinks]
    k = len(non_sinks)
    if m < k:
        return SolveResult.infeasible(0)
    if m == k:
        # case 3: each non-sink needs a resource and there are exactly enough
        return search_complete(inst, notion, non_sinks, budget)
    if graph.sources:
        # case 4: anything held by a pure sink can be shifted to one source
        # (nobody watches a source), so one source suffices as an extra owner;
        # it matters when every source is isolated and hence also a sink.
        cands = sorted(set(non_sinks) | {min(graph.sources)})
        return search_complete(inst, notion, cands, budget)

    # case 5: no sources, so non-sinks are all inner agents
    inner = non_sinks
    by_type: dict[frozenset[int], list[int]] = {}
    for s in sorted(sinks):
        key = frozenset(int(a) for a, b in inst.arc_pairs() if b == s)
        by_type.setdefault(key, []).append(s)
    type_keys = sorted(by_type, key=lambda key: min(by_type[key]))
    reps = {key: by_type[key][: min(len(by_type[key]), m)] for key in type_keys}
    labels: list[tuple[str, object]] = [("agent", a) for a in inner]
    labels += [("type", key) for key in type_keys]
    nodes = 0
    for guess in itertools.product(range(len(labels)), repeat=m):
        per_type: dict[frozenset[int], list[int]] = {key: [] for key in type_keys}
        assignment = {}
        for r, li in enumerate(guess):
            tag, val = labels[li]
            if tag == "agent":
                assignment[r] = val
            else:
                per_type[val].append(r)
        placements = [
            itertools.product(reps[key], repeat=len(per_type[key])) if per_type[key] else [()]
            for key in type_keys
        ]
        for combo in itertools.product(*placements):
            nodes += 1
            if nodes > budget:
                return SolveResult.budget(nodes - 1)
            alloc_map = dict(assignment)
            for key, owners in zip(type_keys, combo):
                for r, s in zip(per_type[key], owners):
                    alloc_map[r] = s
            alloc = Allocation(alloc_map)
            if verify_fairness(inst, alloc, notion) is None:
                return SolveResult.feasible(inst, alloc, nodes)
    return SolveResult.infeasible(nodes)
