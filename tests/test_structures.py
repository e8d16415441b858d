import itertools
import random
import time

import numpy as np
import pytest

from gefalloc import (
    EfficiencyGoal,
    FairnessNotion,
    GuardError,
    Instance,
    classify_graph,
    is_complete,
    solve,
    verify_fairness,
)
from gefalloc.exact import brute_force
from gefalloc.generators import gen_random
from gefalloc.model import PreferenceKind, Status
from gefalloc.structures import (
    ColoredDigraph,
    Structure,
    directed_colored_subiso,
    _equal_split,
    sane_structures,
    solve_gef_identical_structures,
)
from structures_ref import (
    UndirectedGraph,
    check_structure_sanity,
    enumerate_structures,
    gadget_reduce,
    undirected_subiso,
)


def make(utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    return Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )


WEAK, COMPLETE = FairnessNotion.WEAK, EfficiencyGoal.COMPLETE


def identical(row, n, arcs):
    return make([list(row)] * n, arcs)


class TestEnumeration:
    def test_counts_frozen_for_small_m(self):
        # m=2: one-pack partition has 2 weight choices; the two-pack
        # partition has 4 weight vectors times 3 DAGs on 2 vertices
        # m=3: 3 + 3 * 9 * 3 + 27 * 25 (25 labeled DAGs on 3 vertices)
        for m, want in ((1, 1), (2, 14), (3, 759)):
            inst = identical([1] * m, 1, [])
            assert sum(1 for _ in enumerate_structures(inst)) == want

    def test_first_structure_is_canonical(self):
        inst = identical([1, 1], 1, [])
        first = next(enumerate_structures(inst))
        assert first == Structure(((0, 1),), (1,), frozenset())

    def test_every_structure_is_a_dag_partition(self):
        inst = identical([2, 1, 1], 1, [])
        seen = set()
        for s in enumerate_structures(inst):
            flat = sorted(r for pack in s.packs for r in pack)
            assert flat == [0, 1, 2]
            assert len(s.weights) == s.q
            assert all(1 <= w <= 3 for w in s.weights)
            seen.add((s.packs, s.weights, s.arcs))
        assert len(seen) == 759  # no duplicates

    def test_guard_on_nonidentical(self):
        inst = make([[1], [2]], [])
        with pytest.raises(GuardError):
            next(enumerate_structures(inst))


class TestSanity:
    def test_even_split_required(self):
        inst = identical([1, 1, 1], 2, [])
        good = Structure(((0, 1, 2),), (3,), frozenset())
        bad = Structure(((0, 1, 2),), (2,), frozenset())
        assert check_structure_sanity(inst, good)
        assert not check_structure_sanity(inst, bad)

    def test_arc_needs_weakly_larger_share(self):
        inst = identical([3, 1], 2, [])
        forward = Structure(((0,), (1,)), (1, 1), frozenset({(0, 1)}))
        backward = Structure(((0,), (1,)), (1, 1), frozenset({(1, 0)}))
        assert check_structure_sanity(inst, forward)
        assert not check_structure_sanity(inst, backward)

    def test_split_uses_values_not_counts(self):
        # pack total 4 splits over 2 agents only if bundles of value 2 exist
        inst = identical([3, 1], 2, [])
        assert not check_structure_sanity(
            inst, Structure(((0, 1),), (2,), frozenset())
        )
        inst2 = identical([2, 2], 2, [])
        assert check_structure_sanity(
            inst2, Structure(((0, 1),), (2,), frozenset())
        )


class TestSaneStructures:
    def test_matches_filtered_reference(self):
        # the generator yields exactly the sane reference structures with at
        # most len(sizes) packs and weights among sizes, each once, and each
        # with an even split of every pack; the reference enumeration depends
        # on m alone, and the two widest size lists stop at m = 3 to bound the
        # sanity checks
        rng = random.Random(47)
        size_lists = ([1], [2], [3], [1, 1], [1, 2], [2, 2], [1, 1, 1, 1],
                      [2, 4, 4], [1, 2, 3], [1, 3, 2, 1])
        yielded = 0
        for m in range(1, 5):
            every = list(enumerate_structures(identical([1] * m, 1, [])))
            for sizes in size_lists[:8] if m == 4 else size_lists:
                inst = identical([rng.randint(1, 4) for _ in range(m)], 1, [])
                got = [(s, splits) for _, s, splits
                       in sane_structures(inst.utilities[0], sizes) if s is not None]
                structures = [s for s, _ in got]
                assert len(set(structures)) == len(structures)
                want = {
                    s for s in every
                    if s.q <= len(sizes) and set(s.weights) <= set(sizes)
                    and check_structure_sanity(inst, s)
                }
                assert set(structures) == want, (inst.to_document(), sizes)
                row = inst.utilities[0]
                for s, splits in got:
                    for pack, rho, bundles in zip(s.packs, s.weights, splits):
                        assert len(bundles) == rho
                        assert sorted(r for b in bundles for r in b) == list(pack)
                        assert len({sum(int(row[r]) for r in b) for b in bundles}) == 1
                yielded += len(got)
        assert yielded >= 200

    def test_short_pack_is_not_scanned(self):
        # fewer resources than agents: no equal positive shares, and no work,
        # even where the sum divides evenly
        row = np.array([1, 2])
        assert _equal_split(row, (1,), 2, 10**8) == (None, 0)
        assert _equal_split(np.array([2, 2]), (0, 1), 4, 10**8) == (None, 0)
        bundles, work = _equal_split(np.array([1, 1]), (0, 1), 2, 10**8)
        assert bundles == [[0], [1]] and work > 0


def brute_subiso(pattern: ColoredDigraph, host: ColoredDigraph) -> bool:
    """Reference check: try every injective vertex map."""
    host_arcs = set(host.arcs)
    for image in itertools.permutations(range(host.n), pattern.n):
        if any(pattern.colors[v] != host.colors[image[v]] for v in range(pattern.n)):
            continue
        if all((image[a], image[b]) in host_arcs for a, b in pattern.arcs):
            return True
    return False


def random_colored(rng, n, colors, p):
    arcs = [
        (a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p
    ]
    return ColoredDigraph(
        n, tuple(sorted(arcs)), tuple(rng.randint(1, colors) for _ in range(n))
    )


class TestDirectedSubiso:
    def test_respects_colors(self):
        p = ColoredDigraph(1, (), (1,))
        h = ColoredDigraph(1, (), (2,))
        assert directed_colored_subiso(p, h) is None

    def test_respects_direction(self):
        p = ColoredDigraph(2, ((0, 1),), (1, 1))
        h = ColoredDigraph(2, ((1, 0),), (1, 1))
        phi = directed_colored_subiso(p, h)
        assert phi == {0: 1, 1: 0}

    def test_extra_host_arcs_allowed(self):
        p = ColoredDigraph(2, ((0, 1),), (1, 1))
        h = ColoredDigraph(3, ((0, 1), (1, 2), (2, 0)), (1, 1, 1))
        assert directed_colored_subiso(p, h) is not None

    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(150):
            p = random_colored(rng, rng.randint(1, 3), 2, 0.4)
            h = random_colored(rng, rng.randint(1, 4), 2, 0.4)
            got = directed_colored_subiso(p, h)
            want = brute_subiso(p, h)
            assert (got is not None) == want
            if got is not None:
                hits += 1
                assert len(set(got.values())) == p.n
                host_arcs = set(h.arcs)
                for a, b in p.arcs:
                    assert (got[a], got[b]) in host_arcs
                for v in range(p.n):
                    assert p.colors[v] == h.colors[got[v]]
        assert hits >= 30


class TestGadgetReduction:
    def test_rejects_reserved_color(self):
        g = ColoredDigraph(1, (), (0,))
        with pytest.raises(GuardError):
            gadget_reduce(g, g)

    def test_equivalence_on_random_pairs(self):
        rng = random.Random(37)
        agree_yes = agree_no = 0
        for _ in range(40):
            p = random_colored(rng, rng.randint(1, 2), 2, 0.5)
            h = random_colored(rng, rng.randint(1, 3), 2, 0.5)
            direct = directed_colored_subiso(p, h) is not None
            gp, gh = gadget_reduce(p, h)
            gadget = undirected_subiso(gp, gh) is not None
            assert direct == gadget
            if direct:
                agree_yes += 1
            else:
                agree_no += 1
        assert agree_yes >= 5 and agree_no >= 5

    def test_gadget_graphs_are_simple(self):
        p = ColoredDigraph(2, ((0, 1),), (1, 2))
        gp, _ = gadget_reduce(p, p)
        assert all(u < v for u, v in gp.edges)


class TestUndirectedSubiso:
    def test_triangle_in_k4(self):
        tri = UndirectedGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        k4 = UndirectedGraph(
            4, frozenset((i, j) for i in range(4) for j in range(i + 1, 4))
        )
        assert undirected_subiso(tri, k4) is not None

    def test_triangle_not_in_path(self):
        tri = UndirectedGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        path = UndirectedGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        assert undirected_subiso(tri, path) is None

    def test_map_is_injective_homomorphism(self):
        rng = random.Random(41)
        for _ in range(60):
            n_h = rng.randint(2, 6)
            h_edges = frozenset(
                (i, j)
                for i in range(n_h)
                for j in range(i + 1, n_h)
                if rng.random() < 0.5
            )
            n_p = rng.randint(1, n_h)
            p_edges = frozenset(
                (i, j)
                for i in range(n_p)
                for j in range(i + 1, n_p)
                if rng.random() < 0.4
            )
            phi = undirected_subiso(
                UndirectedGraph(n_p, p_edges), UndirectedGraph(n_h, h_edges)
            )
            if phi is None:
                continue
            assert len(set(phi.values())) == n_p
            for u, v in p_edges:
                a, b = sorted((phi[u], phi[v]))
                assert (a, b) in h_edges


class TestStructureSolver:
    def test_against_brute_on_random_identical(self):
        # general graphs up to n=7: the component prune fires on many
        rng = random.Random(43)
        for trial in range(200):
            inst = gen_random(
                rng.randint(1, 7), rng.randint(0, 5),
                PreferenceKind.IDENTICAL, None, 3, 7000 + trial,
            )
            got = solve(inst, WEAK, COMPLETE, algorithm="struct-fpt")
            want = brute_force(inst, WEAK, COMPLETE)
            assert got.status == want.status, inst.to_document()
            if got.allocation is not None:
                assert verify_fairness(inst, got.allocation, FairnessNotion.WEAK) is None
                assert is_complete(inst, got.allocation)

    def test_cycle_divisibility(self):
        for m in range(0, 7):
            inst = identical([1] * m, 3, [(0, 1), (1, 2), (2, 0)])
            res = solve_gef_identical_structures(inst, classify_graph(inst))
            assert (res.status is Status.FEASIBLE) == (m % 3 == 0)

    def test_honours_budget_and_reports_nodes(self):
        # a 2-cycle with a pendant watched agent: neither acyclic nor
        # strongly connected.  Nodes: 2 partitions of the 2 resources, 3
        # units of split scans (packs (0, 1), (0,) and (1,) to one agent, 1
        # each; no pack is scanned for two agents, each having an odd sum or
        # a single resource) and 3 patterns embedded
        arcs = [(0, 1), (1, 0), (1, 2)]
        inst = identical([1, 2], 3, arcs)
        res = solve(inst, WEAK, COMPLETE, algorithm="struct-fpt")
        assert res.status is Status.INFEASIBLE and res.nodes == 8
        assert solve(inst, WEAK, COMPLETE, algorithm="struct-fpt", budget=8) == res
        res = solve(inst, WEAK, COMPLETE, algorithm="struct-fpt", budget=1)
        assert res.status is Status.BUDGET and res.nodes == 1
        res = solve(identical([1, 1, 1], 3, arcs), WEAK, COMPLETE, algorithm="struct-fpt")
        assert res.status is Status.FEASIBLE and res.nodes == 15

    def test_budget_binds_when_no_structure_is_sane(self):
        # two 3-cycles and 11 resources of value 1: no partition into at
        # most two packs splits evenly among three agents per pack, so the
        # search tries every such partition; it stops before the first unit
        # past the budget, and counts the same work at every budget it fits
        inst = identical([1] * 11, 6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        start = time.perf_counter()
        res = solve(inst, WEAK, COMPLETE, algorithm="struct-fpt", budget=1)
        assert time.perf_counter() - start < 0.5
        assert (res.status, res.nodes) == (Status.BUDGET, 1)
        res = solve(inst, WEAK, COMPLETE, algorithm="struct-fpt")
        assert res.status is Status.INFEASIBLE
        assert solve(inst, WEAK, COMPLETE, algorithm="struct-fpt") == res
        assert solve(inst, WEAK, COMPLETE, algorithm="struct-fpt", budget=res.nodes) == res
        cut = solve(inst, WEAK, COMPLETE, algorithm="struct-fpt", budget=res.nodes - 1)
        assert (cut.status, cut.nodes) == (Status.BUDGET, res.nodes - 1)

    def test_worthless_resources_are_parked(self):
        inst = identical([0, 0], 2, [(0, 1), (1, 0)])
        res = solve(inst, WEAK, COMPLETE, algorithm="struct-fpt")
        assert res.status is Status.FEASIBLE
        assert is_complete(inst, res.allocation)

    def test_guard_on_nonidentical(self):
        with pytest.raises(GuardError):
            solve(make([[1], [2]], []), WEAK, COMPLETE, algorithm="struct-fpt")
