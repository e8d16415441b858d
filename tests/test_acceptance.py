"""End-to-end acceptance checks, one test per numbered criterion.

Each test name carries the criterion number; the -v report line is the
pass/fail verdict for that criterion.
"""

import itertools
import random

from gefalloc import (
    ROUTES,
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    GraphKind,
    GuardError,
    Instance,
    analyze,
    classify_graph,
    classify_preferences,
    is_complete,
    is_pareto_efficient,
    select_algorithm,
    solve,
    strip_zero_resources,
    utilitarian_welfare,
    verify_fairness,
)
from gefalloc.exact import brute_force
from gefalloc.generators import (
    BinPackingInput,
    CliqueInput,
    clique_oracle,
    find_clique,
    find_packing,
    gen_from_binpacking,
    gen_from_clique,
    gen_random,
)
from gefalloc.model import (
    PreferenceKind,
    Status,
    utility_profile,
)
from gefalloc.structures import ColoredDigraph, directed_colored_subiso

import oracle
from oracle import max_welfare_bound
from reductions_ref import planted_clique_allocation
from structures_ref import gadget_reduce, undirected_subiso

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT
COMPLETE = EfficiencyGoal.COMPLETE


def make(utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    return Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )


def test_ac01_worked_example():
    agents = ["KAM", "B2BSM", "ISM"]
    resources = ["course", "tv", "office", "award"]
    utilities = [[0, 0, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]
    all_pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    everyone = Instance(agents, resources, utilities, all_pairs)
    assert solve(everyone, WEAK, COMPLETE).status is Status.INFEASIBLE

    fig = Instance(agents, resources, utilities, [(0, 1), (0, 2), (1, 2), (2, 1)])
    res = solve(fig, WEAK, COMPLETE)
    assert res.status is Status.FEASIBLE
    assert verify_fairness(fig, res.allocation, WEAK) is None
    assert is_complete(fig, res.allocation)
    # the chief ends up with both approved rewards
    assert res.allocation.assignment[2] == 0 and res.allocation.assignment[3] == 0


def _applicable_routes(inst, notion):
    """Route names the table accepts for the instance under the complete goal."""
    a = analyze(inst)
    return ["auto"] + [r.name for r in ROUTES if r.applies(a, notion, COMPLETE)]


def test_ac02_oracle_equivalence_all_solvers():
    kinds = list(PreferenceKind)
    shapes = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
    rng = random.Random(101)
    per_class = {k: 0 for k in kinds}
    for trial in range(2000):
        kind = kinds[trial % len(kinds)]
        inst = gen_random(
            rng.randint(1, 4),
            rng.randint(0, 5),
            kind,
            shapes[trial % 3],
            3,
            20000 + trial,
        )
        per_class[kind] += 1
        for notion in (WEAK, STRICT):
            want = brute_force(inst, notion, COMPLETE)
            for algo in _applicable_routes(inst, notion):
                got = solve(inst, notion, COMPLETE, algorithm=algo)
                assert got.status == want.status, (algo, inst.to_document())
                if got.allocation is not None:
                    assert verify_fairness(inst, got.allocation, notion) is None
                    assert is_complete(inst, got.allocation)
    assert all(c >= 500 for c in per_class.values())


def test_ac03_divisibility_law():
    rng = random.Random(103)
    for n in range(1, 6):
        for m in range(0, 11):
            shape = gen_random(
                n, 1, PreferenceKind.IDENTICAL_ZERO_ONE,
                GraphKind.STRONGLY_CONNECTED, 1, 100 * n + m,
            )
            inst = Instance(
                shape.agents,
                [f"r{i}" for i in range(m)],
                [[1] * m] * n,
                shape.arc_pairs(),
            )
            want = m % n == 0
            assert (solve(inst, WEAK, COMPLETE).status is Status.FEASIBLE) == want
            assert (
                brute_force(inst, WEAK, COMPLETE).status is Status.FEASIBLE
            ) == want


def test_ac04_strict_identical_cycle_infeasible_every_route():
    rng = random.Random(107)
    done = 0
    for trial in range(400):
        if done >= 60:
            break
        n = rng.randint(2, 5)
        inst = gen_random(
            n, rng.randint(0, 5), PreferenceKind.IDENTICAL,
            None if trial % 2 else GraphKind.STRONGLY_CONNECTED, 3, 30000 + trial,
        )
        if classify_graph(inst).kind is GraphKind.ACYCLIC:
            continue
        done += 1
        assert select_algorithm(analyze(inst), STRICT, COMPLETE) == "immediate-infeasible"
        assert solve(inst, STRICT, COMPLETE).status is Status.INFEASIBLE
        assert brute_force(inst, STRICT, COMPLETE).status is Status.INFEASIBLE
        stripped, _ = strip_zero_resources(inst)
        if classify_preferences(stripped).zero_one:
            assert (
                solve(inst, STRICT, COMPLETE, algorithm="alg1").status
                is Status.INFEASIBLE
            )
    assert done >= 60


def test_ac05_threshold_flip_at_label_sum():
    rng = random.Random(109)
    trees = []
    for n in range(2, 7):  # the directed path
        trees.append((n, [(i, i + 1) for i in range(n - 1)]))
    for trial in range(12):  # random out-trees: parent below child index
        n = rng.randint(2, 6)
        trees.append((n, [(rng.randint(0, i - 1), i) for i in range(1, n)]))
    for n, arcs in trees:
        labels = classify_graph(make([[1]] * n, arcs)).labels
        need = sum(labels)
        top = max(need + 2, 7)
        for m in range(0, top + 1):
            inst = make([[1] * m] * n if m else [[]] * n, arcs)
            res = solve(inst, STRICT, COMPLETE)
            assert (res.status is Status.FEASIBLE) == (m >= need), (n, arcs, m)
            if m <= 7:
                want = brute_force(inst, STRICT, COMPLETE)
                assert res.status == want.status


def test_ac06_gadget_reduction_equivalence():
    rng = random.Random(113)
    pairs = 0
    hits = 0
    while pairs < 200:
        pn = rng.randint(1, 3)
        hn = rng.randint(1, 5)
        p_arcs = tuple(
            sorted(
                (a, b)
                for a in range(pn)
                for b in range(pn)
                if a != b and rng.random() < 0.4
            )
        )
        h_arcs = tuple(
            sorted(
                (a, b)
                for a in range(hn)
                for b in range(hn)
                if a != b and rng.random() < 0.4
            )
        )
        p = ColoredDigraph(pn, p_arcs, tuple(rng.randint(1, 2) for _ in range(pn)))
        h = ColoredDigraph(hn, h_arcs, tuple(rng.randint(1, 2) for _ in range(hn)))
        direct = directed_colored_subiso(p, h) is not None
        gp, gh = gadget_reduce(p, h)
        assert (undirected_subiso(gp, gh) is not None) == direct
        pairs += 1
        hits += direct
    assert 0 < hits < pairs  # both outcomes exercised


def test_ac07_identical_efficiency_equivalences():
    rng = random.Random(127)
    checked = 0
    witness_found = False
    for trial in range(500):
        if checked >= 200 and witness_found:
            break
        kind = (
            PreferenceKind.IDENTICAL if trial % 2 else PreferenceKind.ZERO_ONE
        )
        inst = gen_random(rng.randint(1, 3), rng.randint(1, 4), kind, None, 3, 40000 + trial)
        if inst.utilities.size == 0 or not (inst.utilities.sum(axis=0) > 0).all():
            continue  # all-zero columns break set equality by design
        if kind is PreferenceKind.IDENTICAL and int(inst.utilities.min()) == 0:
            continue
        checked += 1
        bound = max_welfare_bound(inst)
        fair = [
            alloc
            for alloc in oracle.enumerate_partial_allocations(inst)
            if verify_fairness(inst, alloc, WEAK) is None
        ]
        complete_set = {
            tuple(sorted(a.assignment.items())) for a in fair if is_complete(inst, a)
        }
        pareto_set = {
            tuple(sorted(a.assignment.items()))
            for a in fair
            if is_pareto_efficient(inst, a)
        }
        top_set = {
            tuple(sorted(a.assignment.items()))
            for a in fair
            if utilitarian_welfare(inst, a) == bound
        }
        if kind is PreferenceKind.IDENTICAL:
            assert complete_set == pareto_set == top_set, inst.to_document()
        else:
            assert top_set <= pareto_set <= complete_set, inst.to_document()
            if complete_set - pareto_set:
                witness_found = True
    # a hand witness in case the corpus produced none: complete yet dominated
    inst = make([[0, 1], [1, 1]], [])
    alloc = Allocation({0: 0, 1: 0})
    assert verify_fairness(inst, alloc, WEAK) is None
    assert is_complete(inst, alloc)
    assert is_pareto_efficient(inst, alloc) is False
    assert checked >= 200


def test_ac08_binpacking_generator_bidirectional():
    for bins in (1, 2):
        for cap in range(1, 6):
            for n_items in range(1, 5):
                for sizes in itertools.combinations_with_replacement(
                    range(1, cap + 1), n_items
                ):
                    if sum(sizes) != bins * cap:
                        continue
                    inp = BinPackingInput(sizes, cap, bins)
                    packable = find_packing(sizes, bins, cap) is not None
                    for variant in ("thm58-path", "thm58-cycle"):
                        inst = gen_from_binpacking(inp, variant)
                        res = brute_force(inst, STRICT, COMPLETE)
                        assert (res.status is Status.FEASIBLE) == packable, (
                            sizes, cap, bins, variant,
                        )


def test_ac09_welfare_generator_bidirectional():
    rng = random.Random(131)
    seen_yes = seen_no = 0
    for trial in range(18):
        n = rng.randint(3, 5)
        k = rng.randint(2, 3)
        all_edges = list(itertools.combinations(range(n), 2))
        rng.shuffle(all_edges)
        edges = tuple(sorted(all_edges[: rng.randint(1, min(6, len(all_edges)))]))
        inp = CliqueInput(n, edges, k)
        inst, w = gen_from_clique(inp, "prop63")
        res = brute_force(inst, WEAK, EfficiencyGoal.MAX_WELFARE)
        assert res.status is Status.FEASIBLE
        has = clique_oracle(n, edges, k)
        assert (res.welfare >= w) == has, (edges, k)
        seen_yes += has
        seen_no += not has
    assert seen_yes and seen_no


def test_ac10_planted_clique_and_structural_fidelity():
    triangle = CliqueInput(3, ((0, 1), (0, 2), (1, 2)), 3)
    path3 = CliqueInput(3, ((0, 1), (1, 2)), 2)
    # triangle plus a disjoint edge: max degree 2, edge count above C(3,2)
    tri_plus = CliqueInput(5, ((0, 1), (0, 2), (1, 2), (3, 4)), 3)

    inst = gen_from_clique(triangle, "thm44-fewres")
    assert inst.n == inst.m == 6591
    clique = find_clique(3, triangle.edges, 3)
    alloc = planted_clique_allocation(triangle, "thm44-fewres", clique)
    assert verify_fairness(inst, alloc, WEAK) is None
    assert is_complete(inst, alloc)

    inst = gen_from_clique(path3, "thm44-outdeg2")
    assert classify_graph(inst).max_out_degree == 2
    alloc = planted_clique_allocation(
        path3, "thm44-outdeg2", find_clique(3, path3.edges, 2)
    )
    assert verify_fairness(inst, alloc, WEAK) is None
    assert is_complete(inst, alloc)

    inst = gen_from_clique(tri_plus, "thm48")
    gc = classify_graph(inst)
    assert gc.kind is GraphKind.STRONGLY_CONNECTED
    assert gc.max_out_degree <= 3
    alloc = planted_clique_allocation(
        tri_plus, "thm48", find_clique(5, tri_plus.edges, 3)
    )
    assert verify_fairness(inst, alloc, WEAK) is None
    assert is_complete(inst, alloc)

    for variant, kinds in (
        ("prop56-dag", (GraphKind.ACYCLIC,)),
        ("prop56-scc", (GraphKind.STRONGLY_CONNECTED,)),
    ):
        inst = gen_from_clique(tri_plus, variant)
        gc = classify_graph(inst)
        assert gc.kind in kinds
        assert gc.max_out_degree <= 3
        alloc = planted_clique_allocation(
            tri_plus, variant, find_clique(5, tri_plus.edges, 3)
        )
        assert verify_fairness(inst, alloc, STRICT) is None
        assert is_complete(inst, alloc)
