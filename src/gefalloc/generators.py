"""Test-instance generation.

The hardness reductions' instance families, built from clique or
bin-packing inputs and looked up by variant name in one table per kind of
input; a deterministic random-instance generator; and the tiny exhaustive
clique and packing oracles that say which answer a built instance must
get.

Arbitrary choices inside the constructions (which agent of a component
sources a connecting arc, which resources are the distinguished ones,
and so on) always resolve to the lowest admissible index, so a given
input produces the same instance on every platform.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .graphs import GraphKind
from .model import Instance, PreferenceKind


@dataclass(frozen=True)
class CliqueInput:
    """An undirected simple graph plus a target clique size."""

    n: int
    edges: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("clique input needs at least one vertex")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValidationError(f"edge {e!r} is not a pair")
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValidationError(f"edge {e!r} out of range or unordered")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge {e!r}")
            seen.add((u, v))
        if not 1 < self.k <= self.n:
            raise ValidationError("clique size k must satisfy 1 < k <= vertex count")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def k2(self) -> int:
        """Number of edges a k-clique has."""
        return self.k * (self.k - 1) // 2

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class BinPackingInput:
    """Unary bin packing: item sizes, bin capacity, bin count.

    Both downstream constructions assume the items fill the bins
    exactly, so sum(sizes) == bins * capacity is enforced here.
    """

    sizes: tuple[int, ...]
    capacity: int
    bins: int

    def __post_init__(self):
        if self.bins < 1 or self.capacity < 1:
            raise ValidationError("bin count and capacity must be positive")
        if any(s < 1 for s in self.sizes):
            raise ValidationError("item sizes must be positive")
        if sum(self.sizes) != self.bins * self.capacity:
            raise ValidationError("item sizes must sum to bins * capacity")


def _cycle_arcs(members: Sequence[int]) -> list[tuple[int, int]]:
    k = len(members)
    if k < 2:
        return []
    return [(members[i], members[(i + 1) % k]) for i in range(k)]


# ---------------------------------------------------------------------------
# clique variant 1: identical 0/1 preferences, weak notion, complete goal
# ---------------------------------------------------------------------------


def _thm44_x(inp: CliqueInput, outdeg2: bool) -> int:
    x = inp.n * inp.m if outdeg2 else inp.k * inp.k
    if x < inp.k * inp.k:
        raise ValidationError("scale parameter must be at least k^2")
    return x


def _gen_thm44(inp: CliqueInput, outdeg2: bool) -> Instance:
    """Identical all-ones instance whose complete fair allocations mirror
    k-cliques of the input graph.

    Components, in agent-index order: one root cycle of x^4 agents, one
    x-agent cycle per input vertex, one singleton per input edge.  There
    are x^4 + k*x + C(k,2) resources, so exactly the root plus k vertex
    components plus C(k,2) edge singletons can be served one resource
    per agent.
    """
    if inp.m < inp.k2:
        raise ValidationError("needs at least as many edges as a k-clique has")
    x = _thm44_x(inp, outdeg2)
    root = x ** 4
    n_agents = root + inp.n * x + inp.m

    def vcomp(v: int, j: int) -> int:
        return root + v * x + j

    def ecomp(e: int) -> int:
        return root + inp.n * x + e

    arcs: list[tuple[int, int]] = []
    arr = np.arange(root, dtype=np.int64)
    cycle = np.stack([arr, (arr + 1) % root], axis=1)
    for v in range(inp.n):
        arcs.extend(_cycle_arcs([vcomp(v, j) for j in range(x)]))
        # the root sources one arc per vertex component, distinct agents
        arcs.append((v % root, vcomp(v, 0)))
    used = [0] * inp.n  # how many connecting arcs each vertex component sourced
    for e, (u, v) in enumerate(inp.edges):
        for end in (u, v):
            arcs.append((vcomp(end, used[end] % x), ecomp(e)))
            used[end] += 1
    arcs_arr = np.concatenate([cycle, np.array(arcs, dtype=np.int64)])

    m_res = root + inp.k * x + inp.k2
    agents = [f"a{i}" for i in range(n_agents)]
    resources = [f"r{i}" for i in range(m_res)]
    utilities = np.ones((n_agents, m_res), dtype=np.int8)
    return Instance(agents, resources, utilities, arcs_arr)


# ---------------------------------------------------------------------------
# clique variant 2: 0/1 preferences, strongly connected, weak, complete
# ---------------------------------------------------------------------------

_SEP = 10  # dummy-group size is k**_SEP


def _thm48_layout(inp: CliqueInput):
    k = inp.k
    group = k ** _SEP
    n, m = inp.n, inp.m
    d0 = n + m
    c0 = d0 + (n + m) * group
    n_agents = c0 + k ** 3
    # resources: k vertex, C(k,2) edge, k^4 constraint (first C(k,2) of
    # the constraint block are the distinguished ones)
    rv0, re0, rc0 = 0, k, k + inp.k2
    m_res = rc0 + k ** 4
    return group, d0, c0, n_agents, rv0, re0, rc0, m_res


def _gen_thm48(inp: CliqueInput) -> Instance:
    """0/1 instance on a strongly connected graph whose complete fair
    allocations mirror k-cliques.

    Vertex and edge agents are each guarded by a cycle of k^10 dummy
    agents; a resource count depending only on k then starves any
    allocation that would have to feed a dummy cycle.  Constraint agents
    sit on one big cycle and absorb the k^4 constraint resources, k
    each; which of them hold a distinguished constraint resource encodes
    the selected clique edges.
    """
    k = inp.k
    if k <= 2:
        raise ValidationError("this family needs k > 2")
    if inp.m <= inp.k2:
        raise ValidationError("needs more edges than a k-clique has")
    if inp.m > k ** 3:
        raise ValidationError("needs at most k^3 edges (one constraint agent each)")
    group, d0, c0, n_agents, rv0, re0, rc0, m_res = _thm48_layout(inp)
    n, m = inp.n, inp.m

    def dummy(g: int, j: int) -> int:
        return d0 + g * group + j

    # separator cycles, vectorized: group g occupies a contiguous block
    blocks = []
    for g in range(n + m):
        base = d0 + g * group
        arr = np.arange(group, dtype=np.int64)
        blocks.append(np.stack([base + arr, base + (arr + 1) % group], axis=1))
    arcs: list[tuple[int, int]] = []
    for i in range(n):  # vertex agents threaded through their gadgets
        arcs.append((i, dummy(i, 0)))
        arcs.append((dummy(i, 1), (i + 1) % n))
    for j in range(m):  # edge agents likewise
        arcs.append((n + j, dummy(n + j, 0)))
        arcs.append((dummy(n + j, 1), n + ((j + 1) % m)))
    for j, (u, v) in enumerate(inp.edges):
        arcs.append((u, n + j))
        arcs.append((v, n + j))
    arcs.extend(_cycle_arcs(list(range(c0, c0 + k ** 3))))
    for j in range(m):  # each edge agent watches its own constraint agent
        arcs.append((n + j, c0 + j))
    watcher = c0 + m if m < k ** 3 else c0
    arcs.append((watcher, 0))
    arcs_arr = np.concatenate(blocks + [np.array(arcs, dtype=np.int64)])

    utilities = np.zeros((n_agents, m_res), dtype=np.int8)
    utilities[:n, rv0:re0] = 1  # vertex agents like vertex resources
    utilities[:n, re0:rc0] = 1  # ... and edge resources
    utilities[n : n + m, re0:rc0] = 1  # edge agents like edge resources
    utilities[n : n + m, rc0 : rc0 + inp.k2] = 1  # ... and distinguished ones
    utilities[d0:, rc0:] = 1  # dummies and constraint agents: constraint res.

    agents = [f"a{i}" for i in range(n_agents)]
    resources = [f"r{i}" for i in range(m_res)]
    return Instance(agents, resources, utilities, arcs_arr)


# ---------------------------------------------------------------------------
# clique variant 3: 0/1 preferences, strict notion, complete goal
# ---------------------------------------------------------------------------


def _prop56_layout(inp: CliqueInput, cyclic: bool):
    n, m, k = inp.n, inp.m, inp.k
    # agents: vertices, edges, separating agents, source s, sink t
    sep0 = n + m
    a_s = sep0 + n
    a_t = a_s + 1
    # resources: edges (first C(k,2) distinguished), vertices, separating,
    # a source special, and for the cyclic flavor a sink special
    re0, rv0 = 0, m
    rs0 = rv0 + n + k
    r_tri = rs0 + n
    m_res = r_tri + 1 + (1 if cyclic else 0)
    return sep0, a_s, a_t, re0, rv0, rs0, r_tri, m_res


def _gen_prop56(inp: CliqueInput, cyclic: bool) -> Instance:
    """0/1 instance whose complete strictly-fair allocations mirror
    k-cliques; acyclic, or strongly connected with the closing arc.

    The strongly connected flavor needs every agent to reach the sink,
    which holds exactly when the last input vertex has at least one
    incident edge.
    """
    if inp.m < inp.k2:
        raise ValidationError("needs at least as many edges as a k-clique has")
    n, m, k = inp.n, inp.m, inp.k
    if cyclic and inp.degree(n - 1) == 0:
        raise ValidationError(
            "cyclic flavor needs the last vertex to have an incident edge"
        )
    sep0, a_s, a_t, re0, rv0, rs0, r_tri, m_res = _prop56_layout(inp, cyclic)

    arcs: list[tuple[int, int]] = []
    for j, (u, v) in enumerate(inp.edges):
        arcs.extend([(u, n + j), (v, n + j), (n + j, a_t)])
    for i in range(n):
        arcs.append((sep0 + i, i))
        if i + 1 < n:
            arcs.append((i, sep0 + i + 1))
    arcs.append((a_s, sep0))
    if cyclic:
        arcs.append((a_t, a_s))

    n_agents = a_t + 1
    utilities = np.zeros((n_agents, m_res), dtype=np.int8)
    utilities[:n, re0 : re0 + inp.k2] = 1  # vertices like distinguished edges
    utilities[:n, rv0:rs0] = 1  # ... and vertex resources
    utilities[n:sep0, re0:rv0] = 1  # edge agents like all edge resources
    for i in range(n):
        utilities[sep0 + i, rs0 + i] = 1
    utilities[sep0:a_s, rs0:r_tri] = 1  # separating agents, their resources
    utilities[a_s, r_tri] = 1
    if cyclic:
        utilities[a_t, r_tri + 1] = 1

    agents = (
        [f"v{i}" for i in range(n)]
        + [f"e{j}" for j in range(m)]
        + [f"w{i}" for i in range(n)]
        + ["s", "t"]
    )
    resources = [f"r{i}" for i in range(m_res)]
    return Instance(agents, resources, utilities, np.array(arcs, dtype=np.int64))


# ---------------------------------------------------------------------------
# clique variant 4: welfare threshold, weak notion
# ---------------------------------------------------------------------------


def _gen_prop63(inp: CliqueInput) -> tuple[Instance, int]:
    """Three-valued acyclic instance plus a welfare threshold that a fair
    allocation can reach exactly when the input graph has a k-clique.

    One special agent watches everybody and values every resource at 1;
    hitting the threshold forces every resource onto a dedicated fan at
    one item per fan, which spells out a clique selection.
    """
    n, m, k = inp.n, inp.m, inp.k
    n_agents = 1 + n + m
    m_res = 1 + k + inp.k2
    utilities = np.zeros((n_agents, m_res), dtype=np.int8)
    utilities[0, :] = 1
    utilities[1 : 1 + n, 1 : 1 + k] = 2  # vertex agents on vertex resources
    utilities[1 : 1 + n, 1 + k :] = 1  # ... and edge resources
    utilities[1 + n :, 1 + k :] = 2  # edge agents on edge resources
    arcs = [(0, a) for a in range(1, n_agents)]
    for j, (u, v) in enumerate(inp.edges):
        arcs.extend([(1 + u, 1 + n + j), (1 + v, 1 + n + j)])
    agents = (
        ["x"] + [f"v{i}" for i in range(n)] + [f"e{j}" for j in range(m)]
    )
    resources = [f"r{i}" for i in range(m_res)]
    inst = Instance(agents, resources, utilities, np.array(arcs, dtype=np.int64))
    threshold = 1 + 2 * k + 2 * inp.k2
    return inst, threshold


_CLIQUE_FAMILIES = {
    "thm44-outdeg2": lambda inp: _gen_thm44(inp, outdeg2=True),
    "thm44-fewres": lambda inp: _gen_thm44(inp, outdeg2=False),
    "thm48": _gen_thm48,
    "prop56-dag": lambda inp: _gen_prop56(inp, cyclic=False),
    "prop56-scc": lambda inp: _gen_prop56(inp, cyclic=True),
    "prop63": _gen_prop63,
}
CLIQUE_VARIANTS = tuple(_CLIQUE_FAMILIES)


def gen_from_clique(inp: CliqueInput, variant: str):
    """Build the instance for one of the clique-based families.

    Returns an Instance; the "prop63" variant returns (Instance,
    welfare threshold) instead.
    """
    if variant not in _CLIQUE_FAMILIES:
        raise ValidationError(f"unknown clique variant: {variant}")
    return _CLIQUE_FAMILIES[variant](inp)


# ---------------------------------------------------------------------------
# bin-packing families (strict notion, complete goal)
# ---------------------------------------------------------------------------


def _gen_thm58(inp: BinPackingInput, cyclic: bool) -> Instance:
    """Path (or cycle) of k+2 agents whose complete strictly-fair
    allocations are exactly the perfect packings.

    Resources: one per item (valued at its size by the k bin agents),
    one unit resource per bin agent, a special resource worth 1 to agent
    k and a full bin to agent k-1, and for the cyclic flavor one extra
    resource only the closing agent k+1 values.  The cycle must run
    through agent k+1: closing it at agent k instead would let agent k
    keep the extra resource, drop the special one, and unravel the
    forcing chain.
    """
    k, cap, n = inp.bins, inp.capacity, len(inp.sizes)
    n_agents = k + 2
    m_res = n + k + 1 + (1 if cyclic else 0)
    utilities = np.zeros((n_agents, m_res), dtype=np.int64)
    for i, s in enumerate(inp.sizes):
        utilities[:k, i] = s
    for j in range(k):
        utilities[j, n + j] = 1
    utilities[k - 1, n + k] = cap  # = sum(sizes) / bins
    utilities[k, n + k] = 1
    if cyclic:
        utilities[k + 1, n + k + 1] = 1
    arcs = [(i, i + 1) for i in range(k + 1)]
    if cyclic:
        arcs.append((k + 1, 0))
    agents = [f"a{i}" for i in range(n_agents)]
    resources = [f"r{i}" for i in range(m_res)]
    return Instance(agents, resources, utilities, np.array(arcs, dtype=np.int64))


def _gen_prop53(inp: BinPackingInput) -> Instance:
    """Identical-preferences variant: k bin agents all watch the top of a
    chain of capacity-many dummies with staircase resources, and one
    special agent per bin agent keeps the bins honest."""
    k, cap, n = inp.bins, inp.capacity, len(inp.sizes)
    n_agents = 2 * k + cap
    m_res = cap + n + k
    row = np.empty(m_res, dtype=np.int64)
    row[:cap] = np.arange(cap)  # staircase: 0, 1, ..., cap-1
    row[cap : cap + n] = inp.sizes
    row[cap + n :] = cap + 1
    utilities = np.broadcast_to(row, (n_agents, m_res)).copy()
    arcs = []
    for i in range(cap - 1, 0, -1):  # chain from the top dummy downwards
        arcs.append((k + i, k + i - 1))
    for j in range(k):
        arcs.append((j, k + cap - 1))
        arcs.append((k + cap + j, j))
    agents = (
        [f"a{i}" for i in range(k)]
        + [f"d{i}" for i in range(cap)]
        + [f"s{i}" for i in range(k)]
    )
    resources = [f"r{i}" for i in range(m_res)]
    return Instance(agents, resources, utilities, np.array(arcs, dtype=np.int64))


_BINPACKING_FAMILIES = {
    "thm58-path": lambda inp: _gen_thm58(inp, cyclic=False),
    "thm58-cycle": lambda inp: _gen_thm58(inp, cyclic=True),
    "prop53": _gen_prop53,
}
BINPACKING_VARIANTS = tuple(_BINPACKING_FAMILIES)


def gen_from_binpacking(inp: BinPackingInput, variant: str) -> Instance:
    if variant not in _BINPACKING_FAMILIES:
        raise ValidationError(f"unknown bin-packing variant: {variant}")
    return _BINPACKING_FAMILIES[variant](inp)


# ---------------------------------------------------------------------------
# random instances and tiny oracles
# ---------------------------------------------------------------------------


def gen_random(
    n: int,
    m: int,
    pref_class: PreferenceKind,
    graph_class: Optional[GraphKind],
    max_utility: int = 3,
    seed: int = 0,
) -> Instance:
    """Deterministic random instance.

    The stream is drawn from a Mersenne Twister (Python's ``random``
    module) seeded with the given integer, so a seed pins the instance
    down across platforms.  The preference class is guaranteed by
    construction: identical classes replicate a single row, 0/1 classes
    draw coin flips.  graph_class ACYCLIC only adds arcs from lower to
    higher agent indices; STRONGLY_CONNECTED lays a random cycle first;
    None draws an unconstrained digraph.
    """
    if n < 1 or m < 0 or max_utility < 1:
        raise ValidationError("need n >= 1, m >= 0, max_utility >= 1")
    rng = random.Random(seed)
    if pref_class is PreferenceKind.IDENTICAL_ZERO_ONE:
        row = [rng.randint(0, 1) for _ in range(m)]
        rows = [row] * n
    elif pref_class is PreferenceKind.IDENTICAL:
        row = [rng.randint(0, max_utility) for _ in range(m)]
        rows = [row] * n
    elif pref_class is PreferenceKind.ZERO_ONE:
        rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
    else:
        rows = [[rng.randint(0, max_utility) for _ in range(m)] for _ in range(n)]

    arcs: list[tuple[int, int]] = []
    if graph_class is GraphKind.STRONGLY_CONNECTED:
        order = list(range(n))
        rng.shuffle(order)
        arcs.extend(_cycle_arcs(order))
        have = set(arcs)
        for a in range(n):
            for b in range(n):
                if a != b and (a, b) not in have and rng.random() < 0.15:
                    arcs.append((a, b))
    elif graph_class is GraphKind.ACYCLIC:
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.4:
                    arcs.append((a, b))
    else:
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.3:
                    arcs.append((a, b))
    agents = [f"a{i}" for i in range(n)]
    resources = [f"r{i}" for i in range(m)]
    return Instance(agents, resources, rows, arcs)


def find_clique(n: int, edges: Sequence[tuple[int, int]], k: int):
    """Lexicographically first k-clique as a tuple, or None."""
    es = {frozenset(e) for e in edges}
    if k <= 1:
        return tuple(range(k)) if n >= k else None
    for combo in itertools.combinations(range(n), k):
        if all(frozenset(p) in es for p in itertools.combinations(combo, 2)):
            return combo
    return None


def clique_oracle(n: int, edges: Sequence[tuple[int, int]], k: int) -> bool:
    """Exhaustive subset search; meant for small graphs only."""
    return find_clique(n, edges, k) is not None


def find_packing(sizes: Sequence[int], bins: int, capacity: int):
    """First perfect packing (list of per-bin item-index lists), or None.

    Items are placed in index order into the first bin they fit; a bin
    order canonicalization (item 0 in bin 0, and a new bin is opened
    only after the previous ones) keeps the search small.
    """
    loads = [0] * bins
    placed: list[list[int]] = [[] for _ in range(bins)]

    def rec(i: int):
        if i == len(sizes):
            return all(v == capacity for v in loads)
        for b in range(bins):
            if loads[b] + sizes[i] <= capacity:
                loads[b] += sizes[i]
                placed[b].append(i)
                if rec(i + 1):
                    return True
                loads[b] -= sizes[i]
                placed[b].pop()
            if loads[b] == 0:  # later empty bins are symmetric
                break
        return False

    if sum(sizes) != bins * capacity:
        return None
    return [list(b) for b in placed] if rec(0) else None
