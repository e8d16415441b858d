"""Structure guessing for identical preferences on arbitrary graphs.

A *structure* is a guess of how a fair complete allocation could look from
far away: a partition of the resources into packs, a weight per pack (how
many agents share it), and a DAG of comparison arcs between packs.  A sane
structure can be realized on any group of strongly connected components
whose sizes and in-degrees match, which is a colored directed subgraph
isomorphism question; colors encode (weight, in-degree) so that a matched
component has no incoming arcs from outside the matched picture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .exact import DEFAULT_BUDGET, solve_identical_enum
from .graphs import GraphClass, arc_lists, kahn_order, reachable_from
from .model import (
    Allocation,
    FairnessNotion,
    Instance,
    SolveResult,
    Status,
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
    return len(kahn_order(*arc_lists(q, arcs))) == q


def _equal_split(inst: Instance, pack: tuple[int, ...], rho: int) -> Optional[list[list[int]]]:
    """Split a pack into rho bundles of equal value under the shared utility
    row, or None.  Realized as a fair allocation on a clique of rho agents."""
    row = inst.utilities[0]
    total = int(sum(int(row[r]) for r in pack))
    if rho <= 0 or total % rho != 0:
        return None
    clique = tuple((i, j) for i in range(rho) for j in range(rho) if i != j)
    sub = Instance._derived(
        tuple(f"v{i}" for i in range(rho)),
        tuple(inst.resources[r] for r in pack),
        np.repeat(row[None, list(pack)], rho, axis=0),
        np.array(clique, dtype=np.int64).reshape(-1, 2),
        clique,
    )
    res = solve_identical_enum(sub, FairnessNotion.WEAK)
    if res.status is not Status.FEASIBLE:
        return None
    bundles = res.allocation.bundles(rho)
    return [[pack[j] for j in b] for b in bundles]


def sane_structures(
    inst: Instance, sizes: Sequence[int]
) -> Iterator[tuple[Structure, list[list[list[int]]]]]:
    """Every sane structure with at most ``len(sizes)`` packs and weights
    among ``sizes``, with its pack splits (one bundle per agent sharing the
    pack).  Sane: every pack splits evenly among its weight worth of agents,
    and every arc points from a pack with at least as large a per-agent
    share.  Needs identical positive preferences.

    Order: resource partitions by restricted-growth string; per pack, the
    weights over the sorted sizes that split it evenly; arc subsets of the
    share-respecting pairs as ``itertools.product([0, 1])`` bit vectors,
    acyclic ones only.
    """
    row = inst.utilities[0]
    size_options = sorted(set(sizes))
    split_cache: dict[tuple[tuple[int, ...], int], Optional[list[list[int]]]] = {}

    def split(pack: tuple[int, ...], rho: int):
        key = (pack, rho)
        if key not in split_cache:
            split_cache[key] = _equal_split(inst, pack, rho)
        return split_cache[key]

    for packs in _partitions(list(range(inst.m))):
        q = len(packs)
        if q > len(sizes):
            continue
        options = [[rho for rho in size_options if split(pack, rho) is not None]
                   for pack in packs]
        if not all(options):
            continue
        pairs = _pair_list(q)
        for weights in itertools.product(*options):
            shares = [
                int(sum(int(row[r]) for r in pack)) // rho
                for pack, rho in zip(packs, weights)
            ]
            allowed = [(a, b) for a, b in pairs if shares[a] >= shares[b]]
            for picks in itertools.product([0, 1], repeat=len(allowed)):
                arcs = frozenset(pair for bit, pair in zip(picks, allowed) if bit)
                if _is_dag(q, arcs):
                    yield (Structure(tuple(packs), weights, arcs),
                           [split(pack, rho) for pack, rho in zip(packs, weights)])


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
# the solver built on structures


def _kept_components(inst: Instance, graph: GraphClass) -> list[int]:
    """Indices of the components that may hold resources in a fair complete
    allocation under identical positive preferences.  A component with more
    than m agents, or with condensation in-degree above m, never can, and
    neither can anything it watches.  One pass is the fixed point: a doomed
    predecessor would doom a component, so a kept component keeps every
    predecessor, hence its size and in-degree."""
    m, cond = inst.m, graph.condensation
    seeds = [v for ci, comp in enumerate(cond.components)
             if len(comp) > m or cond.in_degree(ci) > m for v in comp]
    doomed = reachable_from(graph, seeds)
    return [ci for ci, comp in enumerate(cond.components) if comp[0] not in doomed]


def solve_gef_identical_structures(
    inst: Instance, graph: GraphClass, budget: int = DEFAULT_BUDGET
) -> SolveResult:
    """Weak notion, complete goal, identical positive preferences, at least
    one agent, any graph; ``graph`` is the instance's graph class.

    Drops the components that cannot hold resources, embeds each sane
    structure into the condensation of the rest by colored subgraph
    isomorphism, and reconstructs the allocation from the pack splits.
    Components left out of the embedding hold nothing.  Each pattern handed
    to the embedding is one node; past ``budget`` nodes the search stops
    with a budget result.
    """
    if inst.m == 0:
        return SolveResult.feasible(inst, Allocation({}))
    cond = graph.condensation
    kept = _kept_components(inst, graph)
    if not kept:
        return SolveResult.infeasible()
    pos = {ci: k for k, ci in enumerate(kept)}
    sizes = [len(cond.components[ci]) for ci in kept]
    color_base = inst.m + 1  # collision-free (weight, in-degree) encoding
    host = ColoredDigraph(
        len(kept),
        # a kept component's predecessors are kept too
        tuple(sorted((pos[a], pos[b]) for a, b in cond.arcs if b in pos)),
        tuple(s * color_base + cond.in_degree(ci) for s, ci in zip(sizes, kept)),
    )
    nodes = 0
    for structure, splits in sane_structures(inst, sizes):
        indeg = [0] * structure.q
        for _, b in structure.arcs:
            indeg[b] += 1
        pattern = ColoredDigraph(
            structure.q,
            tuple(sorted(structure.arcs)),
            tuple(w * color_base + d for w, d in zip(structure.weights, indeg)),
        )
        nodes += 1
        if nodes > budget:
            return SolveResult.budget(nodes - 1)
        phi = directed_colored_subiso(pattern, host)
        if phi is None:
            continue
        assignment: dict[int, int] = {}
        for pi, bundles in enumerate(splits):
            for bundle, agent in zip(bundles, cond.components[kept[phi[pi]]]):
                for r in bundle:
                    assignment[r] = agent
        alloc = Allocation(assignment)
        assert verify_fairness(inst, alloc, FairnessNotion.WEAK) is None
        return SolveResult.feasible(inst, alloc, nodes)
    return SolveResult.infeasible(nodes)
