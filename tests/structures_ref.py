"""Test-side references for ``gefalloc.structures``.

Unlike ``oracle.py`` this module builds on package internals: it keeps the
unfiltered structure enumeration and the sanity check that the solver's
filtered generator is compared against, the fixed-point component prune that
the solver's one-pass prune is compared against, and the gadget chain that
turns colored directed subgraph isomorphism into plain undirected subgraph
isomorphism (arc subdivision, edge dummies, and color bulbs), the paper's
route to its FPT bound, checked against the direct matcher.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from gefalloc import (ColoredDigraph, GuardError, Instance, Structure, classify_graph,
                      scc_condensation)
from gefalloc.graphs import reachable_from
from gefalloc.model import classify_preferences
from gefalloc.structures import _is_dag, _pair_list, _partitions


def require(cond: bool, msg: str) -> None:
    """Raise GuardError with ``msg`` unless ``cond`` holds."""
    if not cond:
        raise GuardError(msg)


def enumerate_structures(inst: Instance):
    """Every structure in canonical order: resource partitions by
    restricted-growth string, weight vectors lexicographically over
    [1, m]^q, then arc subsets in bitmask order (acyclic ones only)."""
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    m = inst.m
    if m == 0:
        return
    for packs in _partitions(m, m):
        q = len(packs)
        pairs = _pair_list(q)
        dags = [
            arcs
            for arcs in (
                frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
                for mask in range(1 << len(pairs))
            )
            if _is_dag(q, arcs)
        ]
        for weights in itertools.product(range(1, m + 1), repeat=q):
            for arcs in dags:
                yield Structure(tuple(packs), weights, arcs)


def check_structure_sanity(inst: Instance, structure: Structure) -> bool:
    """A structure is sane when every pack splits evenly among its weight
    worth of agents and every comparison arc points from a pack with at
    least as large a per-agent share.  Needs identical positive
    preferences."""
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    require(bool((inst.utilities > 0).all()), "zero-valued resources must be stripped")
    row = inst.utilities[0].tolist()
    shares = []
    for pack, rho in zip(structure.packs, structure.weights):
        if not splits_evenly(tuple(row[r] for r in pack), rho):
            return False
        shares.append(sum(row[r] for r in pack) // rho)
    for a, b in structure.arcs:
        if shares[a] < shares[b]:
            return False
    return True


@functools.lru_cache(maxsize=None)
def splits_evenly(values: tuple[int, ...], rho: int) -> bool:
    """Whether resources of ``values`` can be dealt to ``rho`` agents so
    that every agent's bundle has the same value, by trying every deal."""
    for owners in itertools.product(range(rho), repeat=len(values)):
        bundles = [0] * rho
        for value, owner in zip(values, owners):
            bundles[owner] += value
        if len(set(bundles)) == 1:
            return True
    return False


def induced(inst: Instance, keep: Sequence[int]) -> Instance:
    """The sub-instance on the agents ``keep``, re-indexed in that order."""
    keep = list(keep)
    pos = {v: i for i, v in enumerate(keep)}
    arcs = [
        (pos[a], pos[b]) for a, b in inst.arc_pairs() if a in pos and b in pos
    ]
    util = inst.utilities[keep, :] if keep else inst.utilities[:0, :]
    return Instance([inst.agents[v] for v in keep], inst.resources, util, arcs)


def prune_fixed_point(inst: Instance) -> tuple[int, ...]:
    """Agents kept by repeatedly deleting every strongly connected component
    with more than m agents, or with condensation in-degree larger than m,
    together with everything reachable from it, until none is left."""
    m = inst.m
    alive = list(range(inst.n))
    while True:
        sub = induced(inst, alive)
        cond = scc_condensation(sub)
        bad = [
            ci
            for ci, comp in enumerate(cond.components)
            if len(comp) > m or cond.in_degree(ci) > m
        ]
        if not bad:
            return tuple(alive)
        doomed = reachable_from(classify_graph(sub).succ,
                                [v for ci in bad for v in cond.components[ci]])
        alive = [alive[v] for v in range(sub.n) if v not in doomed]


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    edges: frozenset[tuple[int, int]]  # (u, v) with u < v


VOID = 0  # reserved color for subdivision dummies


def _gadgetize(g: ColoredDigraph, q: int) -> UndirectedGraph:
    colors: list[int] = list(g.colors)
    edges: list[tuple[int, int]] = []

    def new_vertex(color: int) -> int:
        colors.append(color)
        return len(colors) - 1

    def add_edge(u: int, v: int) -> None:
        edges.append((min(u, v), max(u, v)))

    # stage 1a: subdivide each arc u->v into the colored path u, u', v', v
    plain_edges: list[tuple[int, int]] = []
    for u, v in g.arcs:
        up = new_vertex(q + 1)
        vp = new_vertex(q + 2)
        plain_edges += [(u, up), (up, vp), (vp, v)]
    # stage 1b: replace every edge with a 2-path through a void dummy
    for u, v in plain_edges:
        x = new_vertex(VOID)
        add_edge(u, x)
        add_edge(x, v)
    # stage 2: encode every remaining color as a bulb (two cycles of lengths
    # 3 and 3 + color sharing one foot vertex, tied to the owner by an edge)
    for v in range(len(g.colors) + 2 * len(g.arcs)):
        c = colors[v]
        if c == VOID:
            continue
        foot = new_vertex(VOID)
        add_edge(v, foot)
        a1 = new_vertex(VOID)
        a2 = new_vertex(VOID)
        add_edge(foot, a1)
        add_edge(a1, a2)
        add_edge(a2, foot)
        ring = [new_vertex(VOID) for _ in range(2 + c)]
        add_edge(foot, ring[0])
        for i in range(len(ring) - 1):
            add_edge(ring[i], ring[i + 1])
        add_edge(ring[-1], foot)
    return UndirectedGraph(len(colors), frozenset(edges))


def gadget_reduce(
    pattern: ColoredDigraph, host: ColoredDigraph
) -> tuple[UndirectedGraph, UndirectedGraph]:
    """Rewrite a colored-digraph embedding question as an uncolored
    undirected one.  Both graphs must use colors 1..q; q is taken as the
    largest color present on either side."""
    for g in (pattern, host):
        if any(c < 1 for c in g.colors):
            raise GuardError("vertex colors must be positive integers")
    q = max([1] + list(pattern.colors) + list(host.colors))
    return _gadgetize(pattern, q), _gadgetize(host, q)


def undirected_subiso(
    pattern: UndirectedGraph, host: UndirectedGraph
) -> Optional[dict[int, int]]:
    """Generic injective map sending pattern edges onto host edges."""
    p_adj: list[set[int]] = [set() for _ in range(pattern.n)]
    for u, v in pattern.edges:
        p_adj[u].add(v)
        p_adj[v].add(u)
    h_adj: list[set[int]] = [set() for _ in range(host.n)]
    for u, v in host.edges:
        h_adj[u].add(v)
        h_adj[v].add(u)
    p_deg = [len(s) for s in p_adj]
    h_deg = [len(s) for s in h_adj]

    # order pattern vertices so that, within a connected component, each
    # vertex after the first has an already-placed neighbour
    order: list[int] = []
    placed = set()
    for seed in sorted(range(pattern.n), key=lambda v: -p_deg[v]):
        if seed in placed:
            continue
        frontier = [seed]
        while frontier:
            frontier.sort(key=lambda v: (-len(p_adj[v] & placed), -p_deg[v], v))
            v = frontier.pop(0)
            if v in placed:
                continue
            order.append(v)
            placed.add(v)
            frontier.extend(w for w in p_adj[v] if w not in placed)

    mapping: dict[int, int] = {}
    used = set()

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        anchors = [u for u in p_adj[v] if u in mapping]
        if anchors:
            cands = set(h_adj[mapping[anchors[0]]])
            for u in anchors[1:]:
                cands &= h_adj[mapping[u]]
            cand_iter = sorted(cands)
        else:
            cand_iter = range(host.n)
        for w in cand_iter:
            if w in used or h_deg[w] < p_deg[v]:
                continue
            mapping[v] = w
            used.add(w)
            if extend(pos + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    return dict(mapping) if extend(0) else None
