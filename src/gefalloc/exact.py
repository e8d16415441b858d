"""Exponential-time exact solvers.

* ``brute_force``: canonical-order enumeration of assignments, used as the
  oracle everything else is checked against.
* resource-type ILP: aggregates interchangeable resources (equal utility
  columns) into counts and searches the count space directly with a pruned
  depth-first search.  No external solver is involved.
* ``solve_identical_enum``: full enumeration for identical preferences on a
  strongly connected graph, valid because more agents than resources is
  immediately infeasible there.
* ``solve_sgef_fpt_resources``: strict notion parameterized by the number of
  resources; a case split on m picks the agents that may own anything, and
  the table kernel scans the owners^m assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .graphs import GraphClass
from .model import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    SolveResult,
)

DEFAULT_BUDGET = 10**8


def _delta(notion: FairnessNotion) -> int:
    return 1 if notion is FairnessNotion.STRICT else 0


def _result_from_kernel(inst: Instance, status, assignment, welfare, nodes) -> SolveResult:
    """A kernel answer under the search contract as a result."""
    if status == 2:
        return SolveResult.budget(nodes)
    if status == 1:
        return SolveResult.infeasible(nodes)
    alloc = Allocation({r: a for r, a in enumerate(assignment.tolist()) if a >= 0})
    return SolveResult.feasible(inst, alloc, nodes, welfare)


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
    return _result_from_kernel(inst, *_kernels.search(
        inst.utilities, inst.arcs, _delta(notion), cands, 0, budget
    ))


def brute_force(
    inst: Instance,
    notion: FairnessNotion,
    goal: EfficiencyGoal,
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Oracle solver: one kernel scan under the search contract.

    Complete goal: first fair total assignment in canonical order (resource 0
    varies slowest, agents in index order).  MaxWelfare: fair partial
    assignment of maximum welfare, lexicographically first among ties, with
    "unassigned" ordered after the last agent.  Pareto: first fair partial
    assignment not dominated by any assignment at all; the (n+1)^m partial
    assignments count as nodes, a rule that lives in ``_kernels``.  The
    witness is complete, and since utilities are non-negative a complete
    profile is undominated iff no complete profile covers it with a larger
    total: when the n^m complete assignments fit one table, the fair ones
    are checked against that table and no frontier is built.
    """
    args = (inst.utilities, inst.arcs, _delta(notion))
    agents = np.arange(inst.n, dtype=np.int64)
    if goal is EfficiencyGoal.COMPLETE:
        answer = _kernels.search(*args, agents, 0, budget)
    elif goal is EfficiencyGoal.MAX_WELFARE:
        answer = _kernels.search(*args, np.append(agents, -1), 1, budget)
    else:
        answer = _kernels.first_fair_efficient(*args, budget)
    return _result_from_kernel(inst, *answer)


# ---------------------------------------------------------------------------
# resource-type ILP


@dataclass(frozen=True)
class ResourceTypeTable:
    """Groups resources whose utility columns coincide."""

    types: tuple[tuple[int, ...], ...]      # distinct columns, first-seen order
    multiplicity: tuple[int, ...]
    type_of: tuple[int, ...]                # resource -> type index

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Type -> resource indices."""
        members: list[list[int]] = [[] for _ in self.types]
        for r, t in enumerate(self.type_of):
            members[t].append(r)
        return tuple(map(tuple, members))

    @staticmethod
    def build(inst: Instance) -> "ResourceTypeTable":
        index: dict[tuple[int, ...], int] = {}
        type_of = tuple([index.setdefault(col, len(index))
                         for col in map(tuple, inst.utilities.T.tolist())])
        multiplicity = [0] * len(index)
        for t in type_of:
            multiplicity[t] += 1
        return ResourceTypeTable(tuple(index), tuple(multiplicity), type_of)


def solve_type_ilp(
    inst: Instance,
    table: ResourceTypeTable,
    delta: int,
    forbidden: frozenset[tuple[int, int]] = frozenset(),
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Depth-first search over the counts x[agent][type] of ``table``.

    Per type the counts sum to the multiplicity; per attention arc (a, b) of
    ``inst`` a's bundle must beat b's bundle by ``delta``, both valued through
    a's utility row; an (agent, type) pair in ``forbidden`` gets count 0.
    Variable order: types by decreasing multiplicity (stable on the original
    type order), agents in index order inside a type; counts tried from 0
    upward, so the first solution is canonical.  Complete search of at most
    ``budget`` nodes.
    """
    n = inst.n
    ntypes = len(table.types)
    if n == 0:
        if sum(table.multiplicity) == 0:
            return SolveResult.feasible(inst, Allocation({}), 1)
        return SolveResult.infeasible(0)

    type_order = sorted(range(ntypes), key=lambda t: (-table.multiplicity[t], t))
    counts = [[0] * ntypes for _ in range(n)]
    # values[x][y] = value of y's counted bundle under x's row
    values = [[0] * n for _ in range(n)]
    remaining = list(table.multiplicity)
    cap = [
        [0 if (i, t) in forbidden else table.multiplicity[t] for t in range(ntypes)]
        for i in range(n)
    ]
    # (type, agent, what the later agents of the type can take at most)
    variables = []
    for t in type_order:
        tail = sum(cap[i][t] for i in range(n))
        for i in range(n):
            tail -= cap[i][t]
            variables.append((t, i, tail))
    arcs = inst.arc_pairs()
    # per agent, the types it values and their gains
    valued = [[(t, col[i]) for t, col in enumerate(table.types) if col[i] > 0]
              for i in range(n)]

    def consistent() -> bool:
        # optimistic upper bound for the envier vs. the current lower bound
        # for the target; counts already placed can only grow the target side.
        # The arcs are sorted, so an envier's arcs are consecutive.
        envier = -1
        for a, b in arcs:
            if a != envier:
                envier, held, caps = a, counts[a], cap[a]
                ub = values[a][a]
                for t, gain in valued[a]:
                    if held[t] == 0:
                        # a might still take every remaining copy of t
                        ub += min(remaining[t], caps[t]) * gain
            if ub < values[a][b] + delta:
                return False
        return True

    def place(i: int, t: int, c: int) -> None:
        counts[i][t] += c
        remaining[t] -= c
        col = table.types[t]
        for x in range(n):
            values[x][i] += c * col[x]

    # The depth-first search as a loop, so that its depth (one level per
    # variable) is not bounded by the interpreter's recursion limit.  A frame
    # per variable on the path: the counts still to try and the count placed.
    frames: list[list] = []
    vi = nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return SolveResult.budget(nodes - 1)
        if vi < len(variables):
            t, i, tail = variables[vi]
            # the type's last agent takes what is left
            counts_left = range(max(0, remaining[t] - tail), min(remaining[t], cap[i][t]) + 1)
            frames.append([iter(counts_left), 0])
        elif all(values[a][a] >= values[a][b] + delta for a, b in arcs):
            break
        # the next node: the next consistent count of the deepest variable
        # that has one left
        while frames:
            frame = frames[-1]
            t, i, _ = variables[len(frames) - 1]
            if frame[1]:
                place(i, t, -frame[1])
            for c in frame[0]:
                place(i, t, c)
                if consistent():
                    frame[1] = c
                    break
                place(i, t, -c)
            else:
                frames.pop()
                continue
            break
        else:
            return SolveResult.infeasible(nodes)
        vi = len(frames)

    # deal concrete resources in (type, agent-index) order
    assignment = {}
    for t in range(ntypes):
        pool = list(table.members[t])
        pos = 0
        for i in range(n):
            for _ in range(counts[i][t]):
                assignment[pool[pos]] = i
                pos += 1
    return SolveResult.feasible(inst, Allocation(assignment), nodes)


def ilp_search_size(n: int, table: ResourceTypeTable, goal: EfficiencyGoal) -> int:
    """Most nodes ``solve_ilp`` can visit over ``table`` and ``n`` agents.

    A type of multiplicity M that k agents may take (all of them under the
    complete goal, the column's maximisers otherwise) has C(M+k-1, k-1)
    ways to deal its copies, and each of its n variables sees at most that
    many prefixes of them; the types before it multiply that count."""
    complete = goal is EfficiencyGoal.COMPLETE
    nodes = deals = 1
    # the search's type order: by falling multiplicity, stable
    for mult, col in sorted(zip(table.multiplicity, table.types), key=itemgetter(0), reverse=True):
        k = n if complete else col.count(max(col))
        deals *= comb(mult + k - 1, k - 1)
        nodes += n * deals
    return nodes


def solve_ilp(
    inst: Instance,
    notion: FairnessNotion,
    budget: int = DEFAULT_BUDGET,
    goal: EfficiencyGoal = EfficiencyGoal.COMPLETE,
    table: Optional[ResourceTypeTable] = None,
) -> SolveResult:
    """The type program of ``inst`` (its ``table``, built here when not
    given); under the Pareto and MaxWelfare goals every (agent, type) pair
    whose agent is not a maximiser of the type's column is at count 0."""
    if table is None:
        table = ResourceTypeTable.build(inst)
    forbidden = set()
    if goal is not EfficiencyGoal.COMPLETE:
        for t, col in enumerate(table.types):
            top = max(col, default=0)
            forbidden.update((i, t) for i, v in enumerate(col) if v < top)
    return solve_type_ilp(inst, table, _delta(notion), frozenset(forbidden), budget)


# ---------------------------------------------------------------------------
# identical preferences


def solve_identical_enum(
    inst: Instance,
    notion: FairnessNotion = FairnessNotion.WEAK,
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Identical positive preferences, strongly connected graph (or one
    agent), at least one agent, complete goal.  Every agent must end up with
    equal, hence positive, bundle value once there is a resource, so
    n > m > 0 is immediately infeasible and otherwise n^m enumeration is
    affordable.
    """
    if inst.n > inst.m > 0:
        return SolveResult.infeasible(0)
    return search_complete(inst, notion, budget=budget)


# ---------------------------------------------------------------------------
# strict notion, parameterized by the number of resources


def _sgef_owners(inst: Instance, graph: GraphClass) -> Optional[list[int]]:
    """Agents allowed to own resources under the strict notion, or ``None``
    when the instance is infeasible.

    Case split on m against the number of non-sink agents k (agents with at
    least one outgoing arc, each of which needs strictly positive value):

    1. m >= n: every agent.
    2. m < k: infeasible.
    3. m == k: every resource must land on a non-sink agent.
    4. k < m < n with a source present: the non-sinks plus the lowest
       source; anything held by a pure sink can be shifted to one source
       (nobody watches a source), which matters when every source is
       isolated and hence also a sink.
    5. k < m < n, no source: the non-sinks, all inner agents, plus per set
       of in-neighbours the first min(m, count) sinks that share it; sinks
       with equal watchers are interchangeable, and m of them can hold
       every resource the set gets.
    """
    n, m = inst.n, inst.m
    if m >= n:
        return list(range(n))
    sinks = set(graph.sinks)
    owners = [v for v in range(n) if v not in sinks]
    if m < len(owners):
        return None
    if m == len(owners):
        return owners
    if graph.sources:
        return sorted(set(owners) | {min(graph.sources)})
    # predecessor lists ascend, so equal watcher sets give equal tuples
    by_watchers: dict[tuple[int, ...], list[int]] = {}
    for s in graph.sinks:
        by_watchers.setdefault(tuple(graph.pred[s]), []).append(s)
    return sorted(owners + [s for same in by_watchers.values() for s in same[:m]])


def sgef_fpt_search_size(owners: Optional[list[int]], m: int) -> int:
    """Most nodes ``solve_sgef_fpt_resources`` can visit over ``owners``
    (from ``_sgef_owners``) and ``m`` resources: owners^m, the number of
    assignments the kernel scans, and 0 in case 2."""
    return 0 if owners is None else len(owners) ** m


def solve_sgef_fpt_resources(
    inst: Instance, owners: Optional[list[int]], budget: int = DEFAULT_BUDGET
) -> SolveResult:
    """Strict notion, complete goal, any preferences, at least one agent.

    A kernel scan over ``owners``, the agents ``_sgef_owners`` picks for
    ``inst``; the witness is the first fair assignment in the kernel's
    canonical order over those owners in index order.
    """
    if owners is None:
        return SolveResult.infeasible(0)
    return search_complete(inst, FairnessNotion.STRICT, owners, budget)
