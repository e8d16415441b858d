"""Planted witnesses of the hardness reductions, for the tests.

A planted witness is the allocation that a known k-clique (or a known
perfect packing) induces on the instance ``gefalloc.generators`` builds
from the same input, put together exactly the way the family intends.
Each family's layout comes from the generator's own layout helper, so the
index arithmetic is written in one place.
"""

import itertools
from typing import Sequence

from gefalloc import Allocation
from gefalloc.errors import ValidationError
from gefalloc.generators import (
    BinPackingInput,
    CliqueInput,
    _prop56_layout,
    _thm44_layout,
    _thm48_layout,
)


def _clique_edges(inp: CliqueInput, clique: Sequence[int]) -> list[int]:
    """Indices of the input edges inside ``clique``, ascending."""
    cs = set(clique)
    return [e for e, (u, v) in enumerate(inp.edges) if u in cs and v in cs]


def _planted_thm44(inp: CliqueInput, outdeg2: bool, clique: Sequence[int]) -> Allocation:
    x, root, _, _ = _thm44_layout(inp, outdeg2)
    assignment = {r: r for r in range(root)}  # root cycle, one each
    nxt = root
    for v in sorted(clique):
        for j in range(x):
            assignment[nxt] = root + v * x + j
            nxt += 1
    for e in _clique_edges(inp, clique):
        assignment[nxt] = root + inp.n * x + e
        nxt += 1
    return Allocation(assignment)


def _planted_thm48(inp: CliqueInput, clique: Sequence[int]) -> Allocation:
    k = inp.k
    group, d0, c0, rv0, re0, rc0, n_agents, m_res = _thm48_layout(inp)
    ce = _clique_edges(inp, clique)
    assignment: dict[int, int] = {}
    # distinguished constraint resources to the constraint agents watched
    # by the clique's edge agents; then top every constraint agent up to
    # k constraint resources
    special = [c0 + e for e in ce]
    for i, agent in enumerate(special):
        assignment[rc0 + i] = agent
    nxt = rc0 + inp.k2
    special_set = set(special)
    for agent in range(c0, c0 + k ** 3):
        need = k - 1 if agent in special_set else k
        for _ in range(need):
            assignment[nxt] = agent
            nxt += 1
    for i, v in enumerate(sorted(clique)):  # vertex resources
        assignment[rv0 + i] = v
    for i, e in enumerate(ce):  # edge resources
        assignment[re0 + i] = inp.n + e
    return Allocation(assignment)


def _planted_prop56(inp: CliqueInput, cyclic: bool, clique: Sequence[int]) -> Allocation:
    n = inp.n
    ce = _clique_edges(inp, clique)
    _, sep0, a_s, a_t, re0, rv0, rs0, r_tri, _, _ = _prop56_layout(inp, cyclic)
    assignment = {r_tri: a_s}
    if cyclic:
        assignment[r_tri + 1] = a_t
    for i in range(n):
        assignment[rs0 + i] = sep0 + i
    # distinguished edge resources to clique edges, the rest in index order
    plain = iter(e for e in range(inp.m) if e not in set(ce))
    for i in range(inp.m):
        e = ce[i] if i < len(ce) else next(plain)
        assignment[re0 + i] = n + e
    # one vertex resource each, then the k spares to the clique vertices
    for v in range(n):
        assignment[rv0 + v] = v
    for i, v in enumerate(sorted(clique)):
        assignment[rv0 + n + i] = v
    return Allocation(assignment)


def _planted_prop63(inp: CliqueInput, clique: Sequence[int]) -> Allocation:
    assignment = {0: 0}
    for i, v in enumerate(sorted(clique)):
        assignment[1 + i] = 1 + v
    for i, e in enumerate(_clique_edges(inp, clique)):
        assignment[1 + inp.k + i] = 1 + inp.n + e
    return Allocation(assignment)


_PLANTED_CLIQUE = {
    "thm44-outdeg2": lambda inp, clique: _planted_thm44(inp, True, clique),
    "thm44-fewres": lambda inp, clique: _planted_thm44(inp, False, clique),
    "thm48": _planted_thm48,
    "prop56-dag": lambda inp, clique: _planted_prop56(inp, False, clique),
    "prop56-scc": lambda inp, clique: _planted_prop56(inp, True, clique),
    "prop63": _planted_prop63,
}


def planted_clique_allocation(
    inp: CliqueInput, variant: str, clique: Sequence[int]
) -> Allocation:
    """The allocation a known k-clique induces on gen_from_clique(inp,
    variant), built exactly the way the family intends."""
    if len(set(clique)) != inp.k:
        raise ValidationError("clique must list k distinct vertices")
    es = {frozenset(e) for e in inp.edges}
    for u, v in itertools.combinations(sorted(clique), 2):
        if frozenset((u, v)) not in es:
            raise ValidationError("the given vertices are not a clique")
    return _PLANTED_CLIQUE[variant](inp, clique)


def planted_packing_allocation(
    inp: BinPackingInput, variant: str, bins: Sequence[Sequence[int]]
) -> Allocation:
    """The allocation a known perfect packing induces; ``bins`` lists the
    item indices of each bin."""
    k, cap, n = inp.bins, inp.capacity, len(inp.sizes)
    if len(bins) != k or sorted(i for b in bins for i in b) != list(range(n)):
        raise ValidationError("bins must partition the item indices")
    for b in bins:
        if sum(inp.sizes[i] for i in b) != cap:
            raise ValidationError("every bin must be filled exactly")
    assignment: dict[int, int] = {}
    if variant == "prop53":
        for i in range(cap):
            assignment[i] = k + i
        for j, b in enumerate(bins):
            for i in b:
                assignment[cap + i] = j
        for j in range(k):
            assignment[cap + n + j] = k + cap + j
        return Allocation(assignment)
    # thm58-path and thm58-cycle
    for j, b in enumerate(bins):
        for i in b:
            assignment[i] = j
    for j in range(k):
        assignment[n + j] = j
    assignment[n + k] = k
    if variant == "thm58-cycle":
        assignment[n + k + 1] = k + 1
    return Allocation(assignment)
