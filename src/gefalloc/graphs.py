"""Attention-graph analysis: components, condensation, path labels.

Everything here is deterministic: strongly connected components are
reported sorted by their smallest member, and derived orders follow
agent index order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GuardError
from .model import Instance


class GraphKind(enum.Enum):
    ACYCLIC = "acyclic"
    STRONGLY_CONNECTED = "strongly-connected"
    GENERAL = "general"


@dataclass(frozen=True)
class Condensation:
    components: tuple[tuple[int, ...], ...]  # sorted members, comps by min member
    component_of: tuple[int, ...]            # agent -> component index
    arcs: frozenset[tuple[int, int]]         # arcs between distinct components

    def in_degree(self, comp: int) -> int:
        return sum(1 for a, b in self.arcs if b == comp)


@dataclass
class GraphClass:
    kind: GraphKind
    max_out_degree: int
    sources: tuple[int, ...]  # in-degree 0
    sinks: tuple[int, ...]    # out-degree 0
    inner: tuple[int, ...]    # everything else
    inst: Instance = field(repr=False, compare=False)  # the classified instance

    @cached_property
    def condensation(self) -> Condensation:
        """The strongly connected components of ``inst``, built on first use."""
        return scc_condensation(self.inst)


def _adjacency(inst: Instance) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(inst.n)]
    for a, b in inst.arc_pairs():
        adj[a].append(b)
    return adj


def scc_condensation(inst: Instance) -> Condensation:
    """Tarjan's algorithm, iterative so very large graphs do not hit the
    interpreter recursion limit."""
    n = inst.n
    adj = _adjacency(inst)
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
    return Condensation(tuple(tuple(c) for c in comps), tuple(comp_of), frozenset(carcs))


def classify_graph(inst: Instance) -> GraphClass:
    """Degrees, sources, sinks and inner agents from one pass over the arcs.

    The kind needs no condensation.  With n <= 1 the graph is acyclic.  A
    source or a sink rules out strong connectivity, and Kahn's peel then
    tells acyclic from general; without either the graph has a cycle, and
    it is strongly connected iff agent 0 reaches every agent both along the
    arcs and against them.
    """
    n = inst.n
    succ: list[list[int]] = [[] for _ in range(n)]
    in_deg = [0] * n
    for a, b in inst.arc_pairs():
        succ[a].append(b)
        in_deg[b] += 1
    out_deg = list(map(len, succ))
    sources = tuple([v for v, d in enumerate(in_deg) if not d])
    sinks = tuple([v for v, d in enumerate(out_deg) if not d])
    inner = tuple([v for v in range(n) if in_deg[v] and out_deg[v]])
    if n <= 1:
        kind = GraphKind.ACYCLIC
    elif sources or sinks:
        # Kahn's peel, counting in_deg down: every agent leaves iff there
        # is no cycle
        ready = list(sources)
        peeled = 0
        while ready:
            peeled += 1
            for w in succ[ready.pop()]:
                in_deg[w] -= 1
                if not in_deg[w]:
                    ready.append(w)
        kind = GraphKind.ACYCLIC if peeled == n else GraphKind.GENERAL
    else:
        kind = GraphKind.GENERAL
        if _reaches_all(succ):
            pred: list[list[int]] = [[] for _ in range(n)]
            for a, b in inst.arc_pairs():
                pred[b].append(a)
            if _reaches_all(pred):
                kind = GraphKind.STRONGLY_CONNECTED
    return GraphClass(kind, max(out_deg, default=0), sources, sinks, inner, inst)


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


def topological_order(inst: Instance) -> list[int]:
    """Lexicographically smallest topological order (Kahn with a min choice)."""
    import heapq

    n = inst.n
    adj = _adjacency(inst)
    in_deg = [0] * n
    for a, b in inst.arc_pairs():
        in_deg[b] += 1
    heap = [v for v in range(n) if in_deg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in adj[v]:
            in_deg[w] -= 1
            if in_deg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != n:
        raise GuardError("graph has a cycle; no topological order")
    return order


def longest_path_labels(inst: Instance) -> list[int]:
    """Minimum bundle-size labels for the strict notion on an acyclic graph.

    Reverse all arcs, add a virtual super-source with an arc to every agent
    that has no outgoing arc in the original graph, and label each agent with
    (longest path from the super-source) - 1.  A label is then the number of
    agents on the longest original path starting at that agent, minus one.
    """
    order = topological_order(inst)  # also rejects cyclic graphs
    adj = _adjacency(inst)
    label = [0] * inst.n
    # longest path in the reversed graph = DP over reversed topological order
    for v in reversed(order):
        label[v] = max((label[w] + 1 for w in adj[v]), default=0)
    return label


def reachable_from(inst: Instance, starts) -> set[int]:
    adj = _adjacency(inst)
    seen = set(int(s) for s in starts)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen
