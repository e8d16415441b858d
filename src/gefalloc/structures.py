"""Structure guessing for identical preferences on arbitrary graphs.

A *structure* is a guess of how a fair complete allocation could look from
far away: a partition of the resources into packs, a weight per pack (how
many agents share it), and a DAG of comparison arcs between packs.  A sane
structure can be realized on any group of strongly connected components
whose sizes and in-degrees match, which is a colored directed subgraph
isomorphism question; colors encode (weight, in-degree) so that a matched
component has no incoming arcs from outside the matched picture.

The module also contains the gadget chain that turns colored directed
subgraph isomorphism into plain undirected subgraph isomorphism (arc
subdivision, edge dummies, and color bulbs), plus a generic matcher for
each side, so both routes can be checked against each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import GuardError, require
from .exact import prune_large_sccs, solve_identical_enum
from .graphs import scc_condensation
from .model import (
    Allocation,
    FairnessNotion,
    Instance,
    SolveResult,
    Status,
    classify_preferences,
    strip_zero_resources,
    verify_fairness,
)


@dataclass(frozen=True)
class Structure:
    packs: tuple[tuple[int, ...], ...]  # resource indices, each sorted
    weights: tuple[int, ...]            # agents sharing each pack
    arcs: frozenset[tuple[int, int]]    # comparison arcs between packs (a DAG)

    @property
    def q(self) -> int:
        return len(self.packs)


@dataclass(frozen=True)
class ColoredDigraph:
    n: int
    arcs: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]


@dataclass(frozen=True)
class UndirectedGraph:
    n: int
    edges: frozenset[tuple[int, int]]  # (u, v) with u < v

    def degree(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _partitions(items: list[int]):
    """Set partitions in restricted-growth-string order."""
    m = len(items)
    if m == 0:
        return
    rgs = [0] * m
    while True:
        q = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(q)]
        for i, b in enumerate(rgs):
            blocks[b].append(items[i])
        yield [tuple(b) for b in blocks]
        # next RGS
        i = m - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                rgs[i] += 1
                for j in range(i + 1, m):
                    rgs[j] = 0
                break
            i -= 1
        else:
            return


def _pair_list(q: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(q) for j in range(q) if i != j]


def _is_dag(q: int, arcs: Iterable[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(q)}
    indeg = [0] * q
    for a, b in arcs:
        adj[a].append(b)
        indeg[b] += 1
    queue = [v for v in range(q) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == q


def enumerate_structures(inst: Instance):
    """Every structure in canonical order: resource partitions by
    restricted-growth string, weight vectors lexicographically over
    [1, m]^q, then arc subsets in bitmask order (acyclic ones only)."""
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    m = inst.m
    if m == 0:
        return
    for packs in _partitions(list(range(m))):
        q = len(packs)
        pairs = _pair_list(q)
        for weights in itertools.product(range(1, m + 1), repeat=q):
            for mask in range(1 << len(pairs)):
                arcs = frozenset(
                    pairs[i] for i in range(len(pairs)) if mask >> i & 1
                )
                if _is_dag(q, arcs):
                    yield Structure(tuple(packs), weights, arcs)


def _equal_split(inst: Instance, pack: tuple[int, ...], rho: int) -> Optional[list[list[int]]]:
    """Split a pack into rho bundles of equal value under the shared utility
    row, or None.  Realized as a fair allocation on a clique of rho agents."""
    row = inst.utilities[0]
    total = int(sum(int(row[r]) for r in pack))
    if rho <= 0 or total % rho != 0:
        return None
    clique = [(i, j) for i in range(rho) for j in range(rho) if i != j]
    sub = Instance(
        [f"v{i}" for i in range(rho)],
        [inst.resources[r] for r in pack],
        [[int(row[r]) for r in pack] for _ in range(rho)],
        clique,
    )
    res = solve_identical_enum(sub, FairnessNotion.WEAK)
    if res.status is not Status.FEASIBLE:
        return None
    bundles = res.allocation.bundles(rho)
    return [[pack[j] for j in b] for b in bundles]


def check_structure_sanity(inst: Instance, structure: Structure) -> bool:
    """A structure is sane when every pack splits evenly among its weight
    worth of agents and every comparison arc points from a pack with at
    least as large a per-agent share."""
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    row = inst.utilities[0]
    shares = []
    for pack, rho in zip(structure.packs, structure.weights):
        if _equal_split(inst, pack, rho) is None:
            return False
        shares.append(int(sum(int(row[r]) for r in pack)) // rho)
    for a, b in structure.arcs:
        if shares[a] < shares[b]:
            return False
    return True


# ---------------------------------------------------------------------------
# colored directed subgraph isomorphism


def directed_colored_subiso(
    pattern: ColoredDigraph, host: ColoredDigraph
) -> Optional[dict[int, int]]:
    """Injective, color-preserving map sending every pattern arc onto a host
    arc (extra host arcs are allowed).  Deterministic: pattern vertices are
    processed in index order and host candidates tried in index order."""
    host_arcs = set(host.arcs)
    p_out = [0] * pattern.n
    p_in = [0] * pattern.n
    for a, b in pattern.arcs:
        p_out[a] += 1
        p_in[b] += 1
    h_out = [0] * host.n
    h_in = [0] * host.n
    for a, b in host.arcs:
        h_out[a] += 1
        h_in[b] += 1

    mapping: dict[int, int] = {}
    used = set()

    def ok(v: int, w: int) -> bool:
        if pattern.colors[v] != host.colors[w]:
            return False
        if p_out[v] > h_out[w] or p_in[v] > h_in[w]:
            return False
        for a, b in pattern.arcs:
            if a == v and b in mapping and (w, mapping[b]) not in host_arcs:
                return False
            if b == v and a in mapping and (mapping[a], w) not in host_arcs:
                return False
        return True

    def extend(v: int) -> bool:
        if v == pattern.n:
            return True
        for w in range(host.n):
            if w not in used and ok(v, w):
                mapping[v] = w
                used.add(w)
                if extend(v + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return dict(mapping) if extend(0) else None


# ---------------------------------------------------------------------------
# gadget reduction to uncolored undirected subgraph isomorphism

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


# ---------------------------------------------------------------------------
# the solver built on structures


def solve_gef_identical_structures(inst: Instance) -> SolveResult:
    """Weak notion, complete goal, identical preferences, any graph.

    Iterates candidate structures (with cheap feasibility filters layered
    onto the canonical enumeration order), embeds each sane structure into
    the condensation by colored subgraph isomorphism, and reconstructs the
    allocation from the pack splits.  Components left out of the embedding
    hold nothing.
    """
    prefs = classify_preferences(inst)
    require(prefs.identical, "identical preferences required")
    stripped, keep = strip_zero_resources(inst)
    pruned = prune_large_sccs(stripped)
    work = pruned.instance
    m = work.m
    if m == 0:
        if inst.m == 0:
            return SolveResult.feasible(inst, Allocation({}))
        if inst.n == 0:
            return SolveResult.infeasible()
        # only worthless resources: park them all on agent 0
        return SolveResult.feasible(
            inst, Allocation({r: 0 for r in range(inst.m)})
        )
    if work.n == 0:
        return SolveResult.infeasible()

    cond = scc_condensation(work)
    comp_sizes = [len(c) for c in cond.components]
    comp_indeg = [cond.in_degree(ci) for ci in range(len(cond.components))]
    color_base = m + 1  # collision-free (weight, in-degree) encoding
    host = ColoredDigraph(
        len(cond.components),
        tuple(sorted(cond.arcs)),
        tuple(s * color_base + d for s, d in zip(comp_sizes, comp_indeg)),
    )
    row = work.utilities[0]
    size_options = sorted(set(comp_sizes))
    split_cache: dict[tuple[tuple[int, ...], int], Optional[list[list[int]]]] = {}

    def split(pack: tuple[int, ...], rho: int):
        key = (pack, rho)
        if key not in split_cache:
            split_cache[key] = _equal_split(work, pack, rho)
        return split_cache[key]

    for packs in _partitions(list(range(m))):
        q = len(packs)
        if q > len(cond.components):
            continue
        # weights must be component sizes admitting an even split
        options = []
        for pack in packs:
            opts = [rho for rho in size_options if split(pack, rho) is not None]
            options.append(opts)
        if any(not o for o in options):
            continue
        pairs = _pair_list(q)
        for weights in itertools.product(*options):
            shares = [
                int(sum(int(row[r]) for r in pack)) // rho
                for pack, rho in zip(packs, weights)
            ]
            allowed = [
                (i, (a, b)) for i, (a, b) in enumerate(pairs) if shares[a] >= shares[b]
            ]
            for picks in itertools.product([0, 1], repeat=len(allowed)):
                arcs = frozenset(
                    pair for bit, (_, pair) in zip(picks, allowed) if bit
                )
                if not _is_dag(q, arcs):
                    continue
                indeg = [0] * q
                for _, b in arcs:
                    indeg[b] += 1
                pattern = ColoredDigraph(
                    q,
                    tuple(sorted(arcs)),
                    tuple(w * color_base + d for w, d in zip(weights, indeg)),
                )
                phi = directed_colored_subiso(pattern, host)
                if phi is None:
                    continue
                assignment: dict[int, int] = {}
                for pi, pack in enumerate(packs):
                    agents = cond.components[phi[pi]]
                    for bundle, agent in zip(split(pack, weights[pi]), agents):
                        for r in bundle:
                            assignment[r] = agent
                # map back through the prune and the zero-column strip
                final = {
                    keep[r]: pruned.kept[a] for r, a in assignment.items()
                }
                dump = min(range(inst.n)) if inst.n else 0
                for r in range(inst.m):
                    if r not in final:
                        final[r] = dump
                alloc = Allocation(final)
                assert verify_fairness(inst, alloc, FairnessNotion.WEAK) is None
                return SolveResult.feasible(inst, alloc)
    return SolveResult.infeasible()
