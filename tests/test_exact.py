import random

import pytest

from gefalloc import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    GuardError,
    Instance,
    brute_force,
    build_type_ilp,
    classify_graph,
    is_complete,
    solve,
    solve_ilp,
    verify_fairness,
)
from gefalloc.exact import (
    ResourceTypeTable,
    prune_large_sccs,
    sgef_fpt_search_size,
    solve_identical_enum,
    solve_sgef_fpt_resources,
)
from gefalloc.generators import gen_random
from gefalloc.model import PreferenceKind, Status

import oracle

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT


def make(utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    return Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )


def corpus(count, max_n=3, max_m=4, seed0=0):
    rng = random.Random(seed0)
    kinds = list(PreferenceKind)
    from gefalloc.graphs import GraphKind

    shapes = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
    for i in range(count):
        yield gen_random(
            rng.randint(1, max_n),
            rng.randint(0, max_m),
            kinds[i % len(kinds)],
            shapes[i % len(shapes)],
            3,
            seed0 * 10000 + i,
        )


class TestBruteForce:
    def test_complete_against_oracle(self):
        for inst in corpus(60, seed0=3):
            util, arcs = oracle.instance_args(inst)
            for notion, strict in ((WEAK, False), (STRICT, True)):
                res = brute_force(inst, notion, EfficiencyGoal.COMPLETE)
                want = oracle.exists_fair_complete(util, arcs, strict)
                assert (res.status is Status.FEASIBLE) == want
                if res.allocation is not None:
                    assert verify_fairness(inst, res.allocation, notion) is None
                    assert is_complete(inst, res.allocation)

    def test_welfare_against_oracle(self):
        for inst in corpus(40, seed0=4):
            util, arcs = oracle.instance_args(inst)
            for notion, strict in ((WEAK, False), (STRICT, True)):
                res = brute_force(inst, notion, EfficiencyGoal.MAX_WELFARE)
                want = oracle.max_fair_welfare(util, arcs, strict)
                if want is None:
                    assert res.status is Status.INFEASIBLE
                else:
                    assert res.status is Status.FEASIBLE
                    assert res.welfare == want

    def test_pareto_against_oracle(self):
        for inst in corpus(30, max_n=3, max_m=3, seed0=5):
            util, arcs = oracle.instance_args(inst)
            for notion, strict in ((WEAK, False), (STRICT, True)):
                res = brute_force(inst, notion, EfficiencyGoal.PARETO)
                want = oracle.exists_fair_pareto(util, arcs, strict)
                assert (res.status is Status.FEASIBLE) == want

    def test_budget_verdict(self):
        inst = make([[1] * 6] * 4, [(0, 1), (1, 0)])
        res = brute_force(inst, STRICT, EfficiencyGoal.COMPLETE, budget=10)
        assert res.status is Status.BUDGET
        assert res.nodes == 10

    def test_empty_instance(self):
        inst = make([], [])
        assert brute_force(inst, WEAK, EfficiencyGoal.COMPLETE).status is Status.FEASIBLE


class TestResourceTypes:
    def test_grouping(self):
        inst = make([[1, 2, 1], [0, 3, 0]], [])
        table = ResourceTypeTable.build(inst)
        assert table.types == ((1, 0), (2, 3))
        assert table.multiplicity == (2, 1)
        assert table.type_of == (0, 1, 0)
        assert table.members == ((0, 2), (1,))

    def test_model_shape(self):
        inst = make([[1, 1], [1, 1]], [(0, 1)])
        model = build_type_ilp(inst, STRICT)
        assert model.delta == 1
        assert model.arcs == ((0, 1),)


class TestIlp:
    def test_against_brute_on_random_corpus(self):
        for inst in corpus(80, seed0=6):
            for notion in (WEAK, STRICT):
                got = solve_ilp(inst, notion)
                want = brute_force(inst, notion, EfficiencyGoal.COMPLETE)
                assert got.status == want.status, inst.to_document()
                if got.allocation is not None:
                    assert verify_fairness(inst, got.allocation, notion) is None
                    assert is_complete(inst, got.allocation)

    def test_honours_budget(self):
        # strict 4-cycle, general preferences: the full search needs 149 nodes
        inst = make(
            [[1, 2, 3, 4, 5, 6, 7, 8], [8, 7, 6, 5, 4, 3, 2, 1],
             [2, 3, 5, 7, 11, 13, 17, 19], [4, 1, 3, 1, 5, 9, 2, 6]],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        full = solve_ilp(inst, STRICT)
        assert full.status is Status.FEASIBLE and full.nodes == 149
        assert solve_ilp(inst, STRICT, budget=149) == full
        cut = solve(inst, STRICT, EfficiencyGoal.COMPLETE, algorithm="ilp", budget=10)
        assert cut.status is Status.BUDGET and cut.nodes == 10

    def test_forbidden_pairs_respected(self):
        inst = make([[2, 2], [1, 1]], [])
        model = build_type_ilp(inst, WEAK, forbidden=[(0, 0)])
        from gefalloc.exact import solve_type_ilp

        res = solve_type_ilp(inst, model)
        assert res.status is Status.FEASIBLE
        assert all(a == 1 for a in res.allocation.assignment.values())


class TestIdenticalEnum:
    def test_guard(self):
        inst = make([[1, 2], [2, 1]], [(0, 1), (1, 0)])
        with pytest.raises(GuardError):
            solve(inst, WEAK, EfficiencyGoal.COMPLETE, algorithm="ident-enum")

    def test_divisibility_on_id01(self):
        for m in range(0, 7):
            inst = make([[1] * m] * 3 if m else [[], [], []], [(0, 1), (1, 2), (2, 0)])
            res = solve_identical_enum(inst)
            want = m % 3 == 0
            assert (res.status is Status.FEASIBLE) == want

    def test_against_brute(self):
        rng = random.Random(9)
        for trial in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(0, 4)
            from gefalloc.graphs import GraphKind

            inst = gen_random(
                n, m, PreferenceKind.IDENTICAL, GraphKind.STRONGLY_CONNECTED, 3, trial
            )
            from gefalloc.model import strip_zero_resources

            stripped, _ = strip_zero_resources(inst)
            got = solve_identical_enum(stripped)
            want = brute_force(stripped, WEAK, EfficiencyGoal.COMPLETE)
            assert got.status == want.status


class TestPrune:
    def test_oversized_component_removed(self):
        # a 3-cycle with only two resources can never be fed
        inst = make([[1, 1]] * 4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        pruned = prune_large_sccs(inst)
        assert pruned.removed == (0, 1, 2)
        assert pruned.kept == (3,)

    def test_removal_takes_reachable_agents_along(self):
        # the 3-cycle watches agent 3; agent 3 must go with it
        inst = make([[1, 1]] * 5, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3)])
        pruned = prune_large_sccs(inst)
        assert pruned.removed == (0, 1, 2, 3)
        assert pruned.kept == (4,)

    def test_in_degree_rule(self):
        # agent 3 is watched by three singleton components, m = 2
        inst = make([[1, 1]] * 4, [(0, 3), (1, 3), (2, 3)])
        pruned = prune_large_sccs(inst)
        assert 3 in pruned.removed

    def test_keeps_feasible_instances_intact(self):
        inst = make([[1, 1], [1, 1]], [(0, 1)])
        pruned = prune_large_sccs(inst)
        assert pruned.removed == ()

    def test_verdict_preserved_on_random_identical(self):
        rng = random.Random(21)
        for trial in range(30):
            inst = gen_random(
                rng.randint(1, 4), rng.randint(0, 3), PreferenceKind.IDENTICAL,
                None, 3, 500 + trial,
            )
            pruned = prune_large_sccs(inst)
            before = brute_force(inst, WEAK, EfficiencyGoal.COMPLETE)
            after = brute_force(pruned.instance, WEAK, EfficiencyGoal.COMPLETE)
            assert before.status == after.status


class TestSgefFpt:
    def test_against_brute(self):
        for inst in corpus(80, seed0=8):
            got = solve_sgef_fpt_resources(inst, classify_graph(inst))
            want = brute_force(inst, STRICT, EfficiencyGoal.COMPLETE)
            assert got.status == want.status, inst.to_document()
            if got.allocation is not None:
                assert verify_fairness(inst, got.allocation, STRICT) is None
                assert is_complete(inst, got.allocation)

    def test_case4_needs_the_source_candidate(self):
        # two isolated sources plus a 2-cycle; the third resource must
        # land outside the cycle, i.e. on an agent nobody watches
        inst = make(
            [[1, 0, 5], [0, 1, 5], [0, 0, 1], [0, 0, 1]],
            [(0, 1), (1, 0)],
        )
        res = solve_sgef_fpt_resources(inst, classify_graph(inst))
        assert res.status is Status.FEASIBLE
        assert verify_fairness(inst, res.allocation, STRICT) is None

    def test_search_size_monotone_cases(self):
        inst = make([[1]] * 2, [(0, 1)])
        assert sgef_fpt_search_size(inst, classify_graph(inst)) >= 1
