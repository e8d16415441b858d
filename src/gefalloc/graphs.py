"""Attention-graph analysis: one reading of the arcs per instance.

``classify_graph`` reads an instance's arcs once, and the solvers take
their graph facts from the ``GraphClass`` it returns: the successor and
predecessor lists, the kind, the largest out-degree, the sources, sinks
and inner agents, and ``order``, the lexicographically smallest
topological order from one Kahn peel, shorter than n exactly when the
graph has a cycle.  On first use it adds the longest-path labels, a DP
over ``order``, and the condensation, for which Tarjan's pass reads the
arcs again.

Everything here is deterministic: the arcs arrive lexsorted, so every
successor and predecessor list ascends; strongly connected components are
reported sorted by their smallest member, and derived orders follow agent
index order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from .model import Instance


class GraphKind(enum.Enum):
    ACYCLIC = "acyclic"
    STRONGLY_CONNECTED = "strongly-connected"
    GENERAL = "general"


@dataclass(frozen=True)
class Condensation:
    components: tuple[tuple[int, ...], ...]  # sorted members, comps by min member
    arcs: frozenset[tuple[int, int]]         # arcs between distinct components
    in_degrees: tuple[int, ...]              # component -> arcs into it

    def in_degree(self, comp: int) -> int:
        return self.in_degrees[comp]


@dataclass
class GraphClass:
    kind: GraphKind
    max_out_degree: int
    sources: tuple[int, ...]  # in-degree 0
    sinks: tuple[int, ...]    # out-degree 0
    inner: tuple[int, ...]    # everything else
    succ: list[list[int]] = field(repr=False)  # agent -> out-neighbours, ascending
    pred: list[list[int]] = field(repr=False)  # agent -> in-neighbours, ascending
    order: list[int] = field(repr=False)       # least topological order; short on a cycle
    inst: Instance = field(repr=False, compare=False)  # the classified instance

    @cached_property
    def labels(self) -> list[int]:
        """Longest-path labels of an acyclic graph: the number of arcs on
        the longest path starting at each agent, a DP over the reversed
        topological order.  These are the least bundle sizes of the strict
        notion under identical 0/1 preferences."""
        label = [0] * len(self.succ)
        for v in reversed(self.order):
            label[v] = max((label[w] + 1 for w in self.succ[v]), default=0)
        return label

    @cached_property
    def condensation(self) -> Condensation:
        """The strongly connected components of ``inst``, built on first use."""
        return scc_condensation(self.inst)


def arc_lists(n: int, pairs) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists of ``n`` agents from arc ``pairs``."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
        pred[b].append(a)
    return succ, pred


def kahn_order(succ: list[list[int]], pred: list[list[int]]) -> list[int]:
    """Kahn's peel (Kahn 1962) that always takes the smallest ready agent:
    the lexicographically smallest topological order.  It is shorter than
    the number of agents exactly when the graph has a cycle."""
    in_deg = list(map(len, pred))
    ready = [v for v, d in enumerate(in_deg) if not d]  # ascending: a heap
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for w in succ[v]:
            in_deg[w] -= 1
            if not in_deg[w]:
                heappush(ready, w)
    return order


def scc_condensation(inst: Instance) -> Condensation:
    """Tarjan's algorithm, iterative so very large graphs do not hit the
    interpreter recursion limit."""
    n = inst.n
    adj, _ = arc_lists(n, inst.arc_pairs())
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adj[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                # every successor of v is done
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]

    comps.sort(key=lambda c: c[0])
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    carcs = set()
    for a, b in inst.arc_pairs():
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            carcs.add((ca, cb))
    in_deg = [0] * len(comps)
    for _, cb in carcs:
        in_deg[cb] += 1
    return Condensation(tuple(tuple(c) for c in comps), frozenset(carcs), tuple(in_deg))


def classify_graph(inst: Instance) -> GraphClass:
    """The graph facts of ``inst`` from one pass over its arcs and one Kahn
    peel.

    The graph is acyclic iff the peel takes every agent.  Otherwise a
    source or a sink rules out strong connectivity; without either, the
    graph is strongly connected iff agent 0 reaches every agent both along
    the arcs and against them.
    """
    n = inst.n
    succ, pred = arc_lists(n, inst.arc_pairs())
    order = kahn_order(succ, pred)
    sources = tuple([v for v in range(n) if not pred[v]])
    sinks = tuple([v for v in range(n) if not succ[v]])
    inner = tuple([v for v in range(n) if pred[v] and succ[v]])
    if len(order) == n:
        kind = GraphKind.ACYCLIC
    elif sources or sinks or not (_reaches_all(succ) and _reaches_all(pred)):
        kind = GraphKind.GENERAL
    else:
        kind = GraphKind.STRONGLY_CONNECTED
    return GraphClass(kind, max(map(len, succ), default=0), sources, sinks, inner,
                      succ, pred, order, inst)


def _reaches_all(adj: list[list[int]]) -> bool:
    """Whether agent 0 reaches every agent along ``adj``."""
    seen = [False] * len(adj)
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        for w in adj[frontier.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                frontier.append(w)
    return count == len(adj)


def reachable_from(graph: GraphClass, starts) -> set[int]:
    """Agents reachable from ``starts`` along the arcs of ``graph``."""
    seen = set(int(s) for s in starts)
    frontier = list(seen)
    while frontier:
        for w in graph.succ[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen
