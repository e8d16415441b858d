import dataclasses
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
from gefalloc.dispatch import ROUTE, estimates
from gefalloc.exact import ilp_search_size
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
        # more agents than resources: ident-enum answers without a search
        more = make([[2, 1]] * 3, [(0, 1), (1, 2), (2, 0)])
        assert select_algorithm(analyze(more), WEAK, COMPLETE) == "ident-enum"

    def test_weak_identical_general_graph(self):
        inst = make([[2, 1]] * 3, [(0, 1), (1, 0), (1, 2)])
        a = analyze(inst)
        assert ROUTE["struct-fpt"].applies(a, WEAK, COMPLETE)
        # no bound fits (brute 3^2, ilp 37): struct-fpt is first in row order
        assert select_algorithm(a, WEAK, COMPLETE, budget=8) == "struct-fpt"
        assert solve(inst, WEAK, COMPLETE, budget=8).route == "struct-fpt"
        # nothing of value to deal: struct-fpt answers without a search
        worthless = make([[0, 0]] * 3, [(0, 1), (1, 0), (1, 2)])
        assert select_algorithm(analyze(worthless), WEAK, COMPLETE) == "struct-fpt"

    def test_weak_general_prefs_cycle(self):
        inst = make([[1, 2], [2, 1]], [(0, 1), (1, 0)])
        assert ROUTE["ilp"].applies(analyze(inst), WEAK, COMPLETE)
        # sixteen resources of two types on a 4-cycle: 4^16 assignments do
        # not fit the budget, the type counts do
        cycle = make([[(i + r) % 2 + 1 for r in range(16)] for i in range(4)],
                     [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert select_algorithm(analyze(cycle), WEAK, COMPLETE) == "ilp"
        res = solve(cycle, WEAK, COMPLETE)
        assert res.route == "ilp" and res.status is Status.FEASIBLE

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
        # ten agents, a path 0 -> 1 -> 2 and five resources: the case split
        # keeps owners 0 and 1 (2^5 assignments against brute's 10^5)
        path = make([[(3 * i + r) % 4 for r in range(5)] for i in range(10)],
                    [(0, 1), (1, 2)])
        for budget in (10**4, 10**8):
            assert select_algorithm(analyze(path), STRICT, COMPLETE, budget) == "sgef-fpt"

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
        assert ROUTE["ilp"].applies(analyze(zo), WEAK, EfficiencyGoal.MAX_WELFARE)
        # twenty 0/1 resources, each valued by one agent: 3^20 partial
        # assignments do not fit the budget, the maximisers' counts do
        wide = make([[1 - r % 2 for r in range(20)], [r % 2 for r in range(20)]], [(0, 1)])
        assert select_algorithm(analyze(wide), WEAK, EfficiencyGoal.MAX_WELFARE) == "ilp"
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

    def test_table_is_in_automatic_order(self):
        # auto returns the first closed form that applies and stops at the
        # first search row, and estimates take the last row for brute
        searches = [i for i, r in enumerate(ROUTES) if r.bound is not None]
        closed = [i for i, r in enumerate(ROUTES) if r.bound is None]
        assert max(closed) < min(searches)
        assert ROUTES[-1].name == "brute"
        assert [r.name for r in ROUTES if r.exact] == ["sgef-fpt", "ident-enum"]
        assert all(r.cost is not None for r in ROUTES if r.bound is not None)

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
        assert solve(inst, STRICT, WELFARE, "ilp", budget=139).status is Status.INFEASIBLE
        for budget in (14, 125, 138):
            res = solve(inst, STRICT, WELFARE, "ilp", budget=budget)
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


# case5-big-6 of tools/route_dump.py: strict, n=10, m=9, agents 0 and 6 watch
# each other and share seven watched sinks, so the case split keeps every
# agent and no search's bound fits the budget
CASE5_BIG = make(
    [[3, 1, 1, 1, 0, 1, 3, 1, 0], [1, 0, 1, 3, 3, 1, 0, 0, 3], [3, 2, 3, 0, 0, 1, 3, 0, 3],
     [3, 0, 1, 1, 0, 3, 3, 1, 1], [2, 0, 2, 0, 0, 2, 2, 3, 2], [3, 1, 2, 0, 2, 2, 2, 0, 0],
     [3, 0, 0, 0, 0, 0, 0, 1, 0], [3, 0, 1, 2, 1, 3, 2, 3, 2], [0, 3, 2, 3, 0, 2, 1, 3, 0],
     [3, 2, 3, 1, 3, 2, 1, 2, 3]],
    [(0, b) for b in range(1, 10)] + [(6, b) for b in (0, 1, 2, 3, 4, 5, 7, 9)],
)


def _cyclic(rng, count, kinds, n_range, m_range):
    """Seeded ``gen_random`` instances whose graph has a cycle."""
    out = []
    while len(out) < count:
        kind = kinds[len(out) % len(kinds)]
        shape = (GraphKind.STRONGLY_CONNECTED, None)[len(out) % 2]
        inst = gen_random(rng.randint(*n_range), rng.randint(*m_range), kind, shape,
                          1 if kind is PreferenceKind.ZERO_ONE else 4, rng.randrange(10**6))
        if not analyze(inst).acyclic:
            out.append(inst)
    return out


class TestCostRouting:
    def test_no_fitting_bound_keeps_row_order(self):
        a = analyze(CASE5_BIG)
        for budget in (10**6, 10**8):
            est = estimates(a, STRICT, COMPLETE, budget)
            assert all(e.bound > budget for e in est.values())
            # sgef-fpt's exact bound rules it out; the ilp is next in row order
            assert select_algorithm(a, STRICT, COMPLETE, budget) == "ilp"
            res = solve(CASE5_BIG, STRICT, COMPLETE, budget=budget)
            assert res.route == "ilp" and res.status is Status.FEASIBLE
            assert res.nodes == 351
            assert verify_fairness(CASE5_BIG, res.allocation, STRICT) is None

    def test_budget_below_every_bound_falls_back_to_row_order(self):
        inst = make([[1, 1, 2, 2, 3, 3], [3, 3, 2, 2, 1, 1]], [(0, 1), (1, 0)])
        a = analyze(inst)
        for notion in (WEAK, STRICT):
            # brute and sgef-fpt need up to 2^6 = 64 nodes and the ilp 79;
            # the ilp answers within 10
            assert all(e.bound > 20 for e in estimates(a, notion, COMPLETE, 20).values())
            assert select_algorithm(a, notion, COMPLETE, 20) == "ilp"
            res = solve(inst, notion, COMPLETE, budget=20)
            assert res.status is Status.FEASIBLE and res.nodes <= 20
            assert solve(inst, notion, COMPLETE, "brute", budget=20).status is Status.BUDGET

    def test_closed_forms_come_first(self):
        # weak Pareto under 0/1 rows on a DAG: alg2 before the ilp
        inst = make([[1, 0, 1], [0, 1, 1]], [(0, 1)])
        a = analyze(inst)
        assert ROUTE["ilp"].applies(a, WEAK, PARETO)
        assert select_algorithm(a, WEAK, PARETO) == "alg2"

    def test_no_estimate_for_closed_forms_or_brute_alone(self, monkeypatch):
        def fail(*args):
            raise AssertionError("estimated")

        # every search row's bound and cost fail when computed
        monkeypatch.setattr("gefalloc.dispatch.ROUTES", tuple(
            r if r.bound is None else dataclasses.replace(r, bound=fail, cost=fail)
            for r in ROUTES))
        general = make([[1, 2], [2, 3]], [(0, 1), (1, 0)])
        a = analyze(general)
        assert select_algorithm(a, STRICT, PARETO) == "brute"
        assert estimates(a, STRICT, PARETO, 10**8) == {}
        monkeypatch.setattr("gefalloc.dispatch.estimates", fail)
        dag = make([[1, 2], [3, 4]], [(0, 1)])
        assert select_algorithm(analyze(dag), WEAK, COMPLETE) == "dag"

    def test_estimates_are_recorded_and_types_built_once(self, monkeypatch):
        inst = make([[(i + r) % 2 + 1 for r in range(16)] for i in range(4)],
                    [(0, 1), (1, 2), (2, 3), (3, 0)])
        a = analyze(inst)
        est = estimates(a, WEAK, COMPLETE, 10**8)
        assert list(est) == ["ilp", "brute"]
        assert est["brute"].bound == 4**16
        wide = make([[1 - r % 2 for r in range(20)], [r % 2 for r in range(20)]], [(0, 1)])
        assert estimates(analyze(wide), WEAK, WELFARE, 10**8)["brute"].bound == 3**20

        import gefalloc.exact as exact

        built = []
        build = exact.ResourceTypeTable.build
        monkeypatch.setattr(exact.ResourceTypeTable, "build",
                            staticmethod(lambda i: built.append(i) or build(i)))
        assert solve(inst, WEAK, COMPLETE).route == "ilp"
        assert len(built) == 1

    def test_auto_matches_brute_on_cyclic_searches(self):
        rng = random.Random(131)
        general, zero_one = PreferenceKind.GENERAL, PreferenceKind.ZERO_ONE
        runs = [(inst, goal) for inst in _cyclic(rng, 24, [general, zero_one], (4, 6), (8, 10))
                for goal in (COMPLETE,)]
        runs += [(inst, goal) for inst in _cyclic(rng, 6, [zero_one], (3, 4), (5, 7))
                 for goal in (WELFARE, PARETO)]
        for inst, goal in runs:
            for notion in (WEAK, STRICT):
                got = solve(inst, notion, goal)
                want = solve(inst, notion, goal, "brute")
                doc = (got.route, notion, goal, inst.to_document())
                assert want.status is not Status.BUDGET
                assert got.status == want.status, doc
                if got.allocation is None:
                    continue
                assert verify_fairness(inst, got.allocation, notion) is None, doc
                if goal is COMPLETE:
                    assert is_complete(inst, got.allocation), doc
                elif goal is WELFARE:
                    assert got.welfare == want.welfare, doc
                else:
                    assert is_pareto_efficient(inst, got.allocation), doc

    def test_auto_takes_the_cheapest_fitting_search(self):
        rng = random.Random(137)
        kinds = list(PreferenceKind)
        compared = skipped = 0
        for trial in range(200):
            inst = gen_random(rng.randint(1, 5), rng.randint(0, 7), kinds[trial % len(kinds)],
                              (GraphKind.STRONGLY_CONNECTED, None)[trial % 2], 3, 7000 + trial)
            a = analyze(inst)
            for notion in (WEAK, STRICT):
                for goal in (COMPLETE, PARETO, WELFARE):
                    for budget in (10**3, 10**8):
                        pick = select_algorithm(a, notion, goal, budget)
                        # auto sends these to brute before any row applies
                        if inst.n == 0 or (goal is not COMPLETE and inst.m == 0):
                            continue
                        if ROUTE[pick].bound is None:
                            continue
                        est = estimates(a, notion, goal, budget)
                        fits = {k: e for k, e in est.items() if e.bound <= budget}
                        if not fits:
                            continue
                        compared += len(fits) > 1
                        assert pick in fits
                        assert all(est[pick].seconds <= e.seconds for e in fits.values())
                        if ROUTE["ilp"].applies(a, notion, goal) and "ilp" not in est:
                            # left out: even its exact estimate loses
                            skipped += 1
                            bound = ilp_search_size(a.stripped.n, a.types, goal)
                            if bound <= budget:
                                fixed, per_node = ROUTE["ilp"].cost(goal)
                                seconds = fixed + per_node * bound
                                if goal is WELFARE and not (notion is WEAK and a.stripped.m == 0):
                                    seconds += est["brute"].seconds
                                assert est[pick].seconds < seconds
        assert compared > 300 and skipped > 100
