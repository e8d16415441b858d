"""Exponential-time exact solvers.

* ``brute_force``: canonical-order enumeration of assignments, used as the
  oracle everything else is checked against.
* resource-type ILP: aggregates interchangeable resources (equal utility
  columns) into counts and scans the count space with the table kernel, one
  mixed-radix digit per type and one candidate per deal of its copies.  No
  external solver is involved.
* ``solve_identical_enum``: full enumeration for identical preferences on a
  strongly connected graph, valid because more agents than resources is
  immediately infeasible there.
* ``solve_sgef_fpt_resources``: strict notion parameterized by the number of
  resources; a case split on m picks the agents that may own anything, and
  the table kernel scans the owners^m assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
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

    @staticmethod
    def build(inst: Instance) -> "ResourceTypeTable":
        index: dict[tuple[int, ...], int] = {}
        type_of = tuple([index.setdefault(col, len(index))
                         for col in map(tuple, inst.utilities.T.tolist())])
        multiplicity = [0] * len(index)
        for t in type_of:
            multiplicity[t] += 1
        return ResourceTypeTable(tuple(index), tuple(multiplicity), type_of)


def _type_order(table: ResourceTypeTable) -> list[int]:
    """The type scan's digit order: types by falling multiplicity, stable."""
    return sorted(range(len(table.types)), key=lambda t: -table.multiplicity[t])


def _deal_plan(copies: int, k: int, cap: int) -> list[tuple[int, int, int, int]]:
    """``(first, j, unit, total)`` per digit dealing ``copies`` to ``k >= 1``
    agents, the last taking the rest: the digit's candidates give ``unit``
    times each vector of ``j`` counts of sum at most ``total`` to the agents
    from ``first`` on, C(total + j, j) of them.  The other agents go in runs
    of at most ``cap`` candidates, all in one when every deal fits; an agent
    whose counts alone pass ``cap`` gets one digit per place in base
    ``cap``, high first."""
    plan, i = [(0, 0, 1, copies)] if k == 1 else [], 0
    while i < k - 1:
        j = 0
        while i + j < k - 1 and comb(copies + j + 1, j + 1) <= cap:
            j += 1
        if j:
            plan.append((i, j, 1, copies))
        else:
            unit, j = 1, 1
            while unit * cap <= copies:
                unit *= cap
            plan.append((i, 1, unit, copies // unit))
            while unit > 1:
                unit //= cap
                plan.append((i, 1, unit, cap - 1))
        i += j
    return plan


@lru_cache(maxsize=64)
def _deals(rest: int, j: int, unit: int, total: int) -> np.ndarray:
    """The counts one digit of ``_deal_plan`` deals to its run of ``j``
    agents and to the last agent, a row per candidate, read-only: ``unit``
    times each vector of ``j`` counts of sum at most ``total``,
    lexicographic with counts rising, then ``rest`` minus what they take.
    Cached, at most ``SUFFIX_ROWS`` rows of ``j + 1`` counts each, whatever
    the agents: one pass of the benchmark's routed-mix corpus makes 127
    lookups of 11 distinct entries, and rebuilding the rows each time made
    its ilp solves about 55 us slower and its solves per second 7 % fewer."""
    # the j-subsets of range(total + j) in lexicographic order; their gaps
    # are the counts
    part = np.array(list(combinations(range(total + j), j)),
                    dtype=np.int64).reshape(comb(total + j, j), j)
    part[:, 1:] -= part[:, :-1] + 1
    x = np.concatenate((unit * part, rest - unit * part.sum(axis=1, keepdims=True)), axis=1)
    x.flags.writeable = False
    return x


def solve_type_ilp(
    inst: Instance,
    table: ResourceTypeTable,
    delta: int,
    forbidden: frozenset[tuple[int, int]] = frozenset(),
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """One kernel scan over the counts x[agent][type] of ``table``.

    Per type the counts sum to the multiplicity; per attention arc (a, b) of
    ``inst`` a's bundle must beat b's bundle by ``delta``, both valued through
    a's utility row; an (agent, type) pair in ``forbidden`` gets count 0.
    The digits are the types by falling multiplicity (stable), a type's
    candidates its deals to the agents it may go to, lexicographic in (x[0],
    ..., x[n-1]) with counts rising and the last agent taking the rest
    (``_deal_plan``; a type dealt over several digits gets a tested row).
    The first fair column is the first fair count vector in that order.
    Only the middle's and the suffix's digits get gain tables; an outer
    digit's gains are formed for the one candidate the walk moves to.
    """
    n, arcs, cap = inst.n, inst.arcs, max(_kernels.SUFFIX_ROWS, 2)
    a, b = arcs[:, 0], arcs[:, 1]
    # per digit: its type, its type's tested row or -1, the agents it deals
    # to (its run, then the last agent) and the arguments of ``_deals``
    digits, counts, tested = [], [], 0
    # the most a sum can reach: a digit that deals at most ``most`` copies
    # to an agent adds at most u * most to a profile entry, most to a
    # tested row and u * 2 * most to an arc, or u * most when it deals the
    # rest (every count lies in [0, most] then)
    top = 0
    for t in _type_order(table):
        agents = [i for i in range(n) if (i, t) not in forbidden]
        if not agents:              # a type no one may take
            return SolveResult.infeasible(0)
        plan = _deal_plan(table.multiplicity[t], len(agents), cap)
        row = -1 if len(plan) == 1 else tested
        tested += row >= 0
        for step, (first, j, unit, total) in enumerate(plan):
            most = unit * total if step else table.multiplicity[t]
            top += max(1, *table.types[t]) * most * (2 if step else 1)
            digits.append((t, row, agents[first:first + j] + agents[-1:],
                           (0 if step else most, j, unit, total)))
            counts.append(comb(total + j, j))
    # every count fits too: the first digits' ``most`` sum to m
    dtype = _kernels.sum_type(top)
    u = np.array(table.types, dtype=dtype).reshape(len(table.types), n)

    def gains(rs, deals):
        """The gain columns of ``deals``, the rows of each digit of ``rs``."""
        x = np.zeros((sum(map(len, deals)), n), dtype)
        checks = np.zeros((len(x), tested), dtype)
        lo = 0
        for r, d in zip(rs, deals):
            _, row, cols, _ = digits[r]
            x[lo:lo + len(d), cols] = d
            if row >= 0:            # the last agent's count over the type stays >= 0
                checks[lo:lo + len(d), row] = d[:, -1]
            lo += len(d)
        ux = np.repeat(u[[digits[r][0] for r in rs]], [len(d) for d in deals], axis=0)
        return np.concatenate((ux[:, a] * (x[:, a] - x[:, b]), checks, ux * x), axis=1).T

    def tables(lo):
        rs = range(lo, len(digits))
        cols = gains(rs, [_deals(*digits[r][3]) for r in rs])
        bounds = list(accumulate(counts[lo:], initial=0))
        return [cols[:, i:j] for i, j in zip(bounds, bounds[1:])]

    def column(r, c):
        return gains([r], [_deals(*digits[r][3])[c:c + 1]])[:, 0]

    split = _kernels._Split(counts, tables, column, len(arcs) + tested + n, dtype)
    need = np.array([delta] * len(arcs) + [0] * tested, dtype=dtype)
    status, index, welfare, nodes = _kernels._fair(split, len(need), need, 0, budget)
    if status != 0:
        return SolveResult.budget(nodes) if status == 2 else SolveResult.infeasible(nodes)
    count = [[0] * n for _ in table.types]
    for (t, _, cols, deal), c in zip(digits, split.digits(index)):
        for i, k in zip(cols, _deals(*deal)[c].tolist()):
            count[t][i] += k
    # deal concrete resources in (type, agent-index) order
    held = [iter([i for i, c in enumerate(row) for _ in range(c)]) for row in count]
    return SolveResult.feasible(
        inst, Allocation({r: next(held[t]) for r, t in enumerate(table.type_of)}), nodes, welfare)


def type_scan_size(n: int, table: ResourceTypeTable, goal: EfficiencyGoal) -> int:
    """Most work ``solve_ilp`` counts over ``table`` and ``n`` agents
    (``_kernels.work_bound`` of its digits), a type going to every agent
    under the complete goal, to the column's maximisers otherwise."""
    cap, counts = max(_kernels.SUFFIX_ROWS, 2), []
    for t in _type_order(table):
        col = table.types[t]
        k = n if goal is EfficiencyGoal.COMPLETE else col.count(max(col))
        counts += [comb(total + j, j) for _, j, _, total in
                   _deal_plan(table.multiplicity[t], k, cap)] if k else [0]
    return _kernels.work_bound(counts)


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
    """Most work ``solve_sgef_fpt_resources`` counts over ``owners`` (from
    ``_sgef_owners``) and ``m`` resources: the kernel's bound on owners^m
    assignments, and 0 in case 2."""
    return 0 if owners is None else _kernels.work_bound([len(owners)] * m)


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
