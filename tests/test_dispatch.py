import random

import numpy as np
import pytest

from gefalloc import (
    ALGORITHMS,
    ROUTES,
    EfficiencyGoal,
    FairnessNotion,
    GuardError,
    Instance,
    analyze,
    brute_force,
    is_complete,
    is_pareto_efficient,
    select_algorithm,
    solve,
    verify_fairness,
)
from gefalloc.generators import gen_random
from gefalloc.graphs import GraphKind
from gefalloc.model import PreferenceKind, Status

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT
COMPLETE = EfficiencyGoal.COMPLETE


def make(utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    return Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )


class TestRouting:
    def test_weak_acyclic_routes_to_dag(self):
        inst = make([[1, 2], [3, 4]], [(0, 1)])
        assert select_algorithm(analyze(inst), WEAK, COMPLETE) == "dag"

    def test_weak_id01_scc(self):
        inst = make([[1, 1], [1, 1]], [(0, 1), (1, 0)])
        assert select_algorithm(analyze(inst), WEAK, COMPLETE) == "scc-id01"

    def test_weak_identical_scc(self):
        inst = make([[2, 1], [2, 1]], [(0, 1), (1, 0)])
        assert select_algorithm(analyze(inst), WEAK, COMPLETE) == "ident-enum"

    def test_weak_identical_general_graph(self):
        inst = make([[2, 1]] * 3, [(0, 1), (1, 0), (1, 2)])
        assert select_algorithm(analyze(inst), WEAK, COMPLETE) == "struct-fpt"

    def test_weak_general_prefs_cycle(self):
        inst = make([[1, 2], [2, 1]], [(0, 1), (1, 0)])
        assert select_algorithm(analyze(inst), WEAK, COMPLETE) == "ilp"

    def test_strict_identical_cycle_immediate(self):
        inst = make([[2, 1], [2, 1]], [(0, 1), (1, 0)])
        assert select_algorithm(analyze(inst), STRICT, COMPLETE) == "immediate-infeasible"
        assert solve(inst, STRICT, COMPLETE).status is Status.INFEASIBLE

    def test_strict_id01_routes_to_alg1(self):
        inst = make([[1, 1], [1, 1]], [(0, 1)])
        assert select_algorithm(analyze(inst), STRICT, COMPLETE) == "alg1"

    def test_strict_identical_manyvalues(self):
        inst = make([[1, 2, 3], [1, 2, 3]], [(0, 1)])
        assert select_algorithm(analyze(inst), STRICT, COMPLETE) == "manyvalues"

    def test_strict_small_search_uses_fpt(self):
        inst = make([[1, 2], [2, 1]], [(0, 1)])
        assert select_algorithm(analyze(inst), STRICT, COMPLETE) == "sgef-fpt"

    def test_zero_columns_stripped_before_classification(self):
        # the zero column hides the identical 0/1 structure until stripped
        inst = make([[1, 0], [1, 0]], [(0, 1), (1, 0)])
        assert select_algorithm(analyze(inst), WEAK, COMPLETE) == "scc-id01"

    def test_efficiency_routes(self):
        ident = make([[2, 1], [2, 1]], [(0, 1), (1, 0)])
        assert (
            select_algorithm(analyze(ident), WEAK, EfficiencyGoal.PARETO) == "ident-enum"
        )
        zo = make([[1, 0], [0, 1]], [(0, 1)])
        assert select_algorithm(analyze(zo), WEAK, EfficiencyGoal.MAX_WELFARE) == "ilp"
        gen = make([[1, 2], [2, 3]], [(0, 1)])
        assert select_algorithm(analyze(gen), WEAK, EfficiencyGoal.PARETO) == "alg2"
        assert select_algorithm(analyze(gen), STRICT, EfficiencyGoal.PARETO) == "brute"


class TestSolveEntry:
    def test_unknown_algorithm(self):
        with pytest.raises(GuardError):
            solve(make([[1]], []), WEAK, COMPLETE, algorithm="magic")

    def test_forced_algorithm_guard_mismatch(self):
        with pytest.raises(GuardError):
            solve(make([[1]], []), STRICT, COMPLETE, algorithm="dag")

    def test_auto_matches_brute_across_classes(self):
        rng = random.Random(83)
        kinds = list(PreferenceKind)
        shapes = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
        for trial in range(120):
            inst = gen_random(
                rng.randint(1, 4), rng.randint(0, 4),
                kinds[trial % len(kinds)], shapes[trial % 3], 3, 4000 + trial,
            )
            for notion in (WEAK, STRICT):
                got = solve(inst, notion, COMPLETE)
                want = brute_force(inst, notion, COMPLETE)
                assert got.status == want.status, inst.to_document()
                if got.allocation is not None:
                    assert verify_fairness(inst, got.allocation, notion) is None
                    assert is_complete(inst, got.allocation)

    def test_forced_brute_and_ilp_agree(self):
        rng = random.Random(89)
        for trial in range(30):
            inst = gen_random(
                rng.randint(1, 3), rng.randint(0, 4),
                PreferenceKind.GENERAL, None, 3, 4500 + trial,
            )
            for notion in (WEAK, STRICT):
                a = solve(inst, notion, COMPLETE, algorithm="brute")
                b = solve(inst, notion, COMPLETE, algorithm="ilp")
                assert a.status == b.status


PARETO, WELFARE = EfficiencyGoal.PARETO, EfficiencyGoal.MAX_WELFARE


class TestRouteTable:
    def test_algorithms_are_the_table_rows(self):
        assert ALGORITHMS == ("auto",) + tuple(r.name for r in ROUTES)

    def test_result_names_the_route(self):
        res = solve(make([[1, 2], [3, 4]], [(0, 1)]), WEAK, COMPLETE)
        assert res.route == "dag"
        res = solve(make([[1, 2], [3, 4]], [(0, 1)]), WEAK, COMPLETE, algorithm="ilp")
        assert res.route == "ilp"

    def test_welfare_fallback_shows_in_route(self):
        # identical 0/1 on a 2-cycle with one resource: no fair complete
        # allocation, but the empty allocation is fair with welfare 0
        inst = make([[1], [1]], [(0, 1), (1, 0)])
        res = solve(inst, WEAK, WELFARE)
        assert res.route == "scc-id01->brute"
        assert res.status is Status.FEASIBLE and res.welfare == 0

    def test_welfare_fallback_shares_one_budget(self):
        # 0/1 rows: ilp finds no fair allocation at the column-maximum bound
        # after 14 nodes and brute force scans the 5^3 partial allocations
        inst = make([[1, 1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]],
                    [(0, 3), (1, 0), (1, 2), (2, 1), (3, 0), (3, 2)])
        first = solve(inst, STRICT, WELFARE, algorithm="ilp")
        assert first.route == "ilp->brute"
        assert first.status is Status.INFEASIBLE and first.nodes == 14 + 125
        assert solve(inst, STRICT, WELFARE, budget=139).status is Status.INFEASIBLE
        for budget in (14, 125, 138):
            res = solve(inst, STRICT, WELFARE, budget=budget)
            assert res.route == "ilp->brute"
            assert res.status is Status.BUDGET and res.nodes == budget

    def test_no_agents_with_resources_is_infeasible(self):
        inst = Instance([], ["r0"], np.zeros((0, 1), dtype=np.int64), [])
        for notion in (WEAK, STRICT):
            assert brute_force(inst, notion, COMPLETE).status is Status.INFEASIBLE
            for algo in ["auto"] + [
                r.name for r in ROUTES if r.applies(analyze(inst), notion, COMPLETE)
            ]:
                res = solve(inst, notion, COMPLETE, algorithm=algo)
                assert res.status is Status.INFEASIBLE, algo

    def test_alg2_serves_only_weak_pareto_on_a_dag(self):
        # alg2's answer is Pareto-efficient but need not maximise welfare
        inst = make([[1, 3, 2, 3], [3, 3, 3, 1]], [(0, 1)])
        with pytest.raises(GuardError):
            solve(inst, WEAK, WELFARE, algorithm="alg2")
        with pytest.raises(GuardError):
            solve(inst, WEAK, COMPLETE, algorithm="alg2")
        with pytest.raises(GuardError):
            solve(inst, STRICT, PARETO, algorithm="alg2")
        assert solve(inst, WEAK, WELFARE).welfare == 12
        assert brute_force(inst, WEAK, WELFARE).welfare == 12
        assert solve(inst, WEAK, PARETO, algorithm="alg2").route == "alg2"

    def test_every_accepted_route_agrees_with_brute_on_efficiency_goals(self):
        rng = random.Random(97)
        kinds = list(PreferenceKind)
        shapes = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
        forced = 0
        for trial in range(150):
            inst = gen_random(
                rng.randint(1, 3), rng.randint(0, 4),
                kinds[trial % len(kinds)], shapes[trial % 3], 3, 6000 + trial,
            )
            a = analyze(inst)
            for notion in (WEAK, STRICT):
                for goal in (PARETO, WELFARE):
                    want = brute_force(inst, notion, goal)
                    names = ["auto"] + [
                        r.name for r in ROUTES if r.applies(a, notion, goal)
                    ]
                    forced += len(names) - 2
                    for algo in names:
                        got = solve(inst, notion, goal, algorithm=algo)
                        doc = (algo, notion, goal, inst.to_document())
                        assert got.status == want.status, doc
                        if got.allocation is None:
                            continue
                        assert verify_fairness(inst, got.allocation, notion) is None, doc
                        if goal is WELFARE:
                            assert got.welfare == want.welfare, doc
                        else:
                            assert is_pareto_efficient(inst, got.allocation), doc
        assert forced > 300  # routes other than auto and brute were exercised
