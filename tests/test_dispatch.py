import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from gefalloc import (
    ALGORITHMS,
    ROUTES,
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    GuardError,
    Instance,
    SolveResult,
    analyze,
    is_complete,
    is_pareto_efficient,
    select_algorithm,
    solve,
    verify_fairness,
)
import gefalloc.dispatch as dispatch
from gefalloc import _kernels
from gefalloc.dispatch import NO_SEARCH_S, ROUTE, estimates
from gefalloc.exact import brute_force, type_scan_size
from gefalloc.generators import gen_random
from gefalloc.graphs import GraphKind
from gefalloc.model import PreferenceKind, Status

import oracle

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
        # after testing its 6 count vectors, and brute force scans the 5^3
        # partial allocations
        inst = make([[1, 1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 1]],
                    [(0, 3), (1, 0), (1, 2), (2, 1), (3, 0), (3, 2)])
        first = solve(inst, STRICT, WELFARE, algorithm="ilp")
        assert first.route == "ilp->brute"
        assert first.status is Status.INFEASIBLE and first.nodes == 6 + 125
        assert solve(inst, STRICT, WELFARE, "ilp", budget=131).status is Status.INFEASIBLE
        for budget in (6, 125, 130):
            res = solve(inst, STRICT, WELFARE, "ilp", budget=budget)
            assert res.route == "ilp->brute"
            assert res.status is Status.BUDGET and res.nodes == budget

    def test_final_infeasible_does_not_fall_through(self):
        # along a cycle under strict fairness and one shared valuation no
        # allocation is fair, the empty one included: brute force agrees
        # after all 4^4 partial allocations (at budget 10 it ends BUDGET),
        # and its own infeasible answer does not fall through either
        cycle = make([[1, 1, 2, 1]] * 3, [(0, 1), (1, 2), (2, 0)])
        res = solve(cycle, STRICT, WELFARE, algorithm="brute")
        assert (res.route, res.status, res.nodes) == ("brute", Status.INFEASIBLE, 4**4)
        for algo in ("auto", "immediate-infeasible"):
            res = solve(cycle, STRICT, WELFARE, algorithm=algo, budget=10)
            assert (res.route, res.status, res.nodes) == (
                "immediate-infeasible", Status.INFEASIBLE, 0)
        # sgef-fpt's case 2: one valued resource, two agents with an out-arc
        path = make([[2], [2], [2]], [(0, 1), (1, 2)])
        assert analyze(path).sgef_owners is None
        assert brute_force(path, STRICT, WELFARE).status is Status.INFEASIBLE
        res = solve(path, STRICT, WELFARE, algorithm="sgef-fpt", budget=2)
        assert (res.route, res.status, res.nodes) == ("sgef-fpt", Status.INFEASIBLE, 0)
        # an infeasible answer that is not final still falls through
        res = solve(make([[1], [1]], [(0, 1), (1, 0)]), WEAK, WELFARE)
        assert res.route == "scc-id01->brute" and res.status is Status.FEASIBLE

    def test_lift_fills_only_the_dropped_columns(self):
        # r1 is worthless and goes to agent 0; r0, valued by b, stays
        # unassigned as the stripped answer left it
        inst = Instance(["a", "b"], ["r0", "r1"], [[0, 0], [2, 0]], [(1, 0)])
        a = analyze(inst)
        assert a.keep == (0,)
        empty = SolveResult(Status.FEASIBLE, Allocation({}), 0, 1)
        lifted = a.lift(empty)
        assert lifted.allocation == Allocation({1: 0})
        assert verify_fairness(inst, lifted.allocation, WEAK) is None
        given = a.lift(SolveResult(Status.FEASIBLE, Allocation({0: 1}), 2, 1))
        assert given.allocation == Allocation({0: 1, 1: 0})

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
            assert res.nodes == 109000
            assert verify_fairness(CASE5_BIG, res.allocation, STRICT) is None

    def test_budget_below_every_bound_falls_back_to_row_order(self):
        # fourteen resources of distinct types on a 2-cycle: brute, sgef-fpt
        # and the ilp may each need 2^14 + 2 work (every assignment tested
        # and both prefixes screened); the ilp answers in its first prefix
        inst = make([list(range(1, 15)), list(range(14, 0, -1))], [(0, 1), (1, 0)])
        a = analyze(inst)
        for notion in (WEAK, STRICT):
            est = estimates(a, notion, COMPLETE, 10**4)
            assert all(e.bound == 2**14 + 2 for e in est.values())
            assert select_algorithm(a, notion, COMPLETE, 10**4) == "ilp"
            res = solve(inst, notion, COMPLETE, budget=10**4)
            assert res.status is Status.FEASIBLE and res.nodes == 2 + 2**13
            assert verify_fairness(inst, res.allocation, notion) is None

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
        # every assignment tested and every prefix of 6 or 8 digits screened
        assert est["brute"].bound == 4**16 + 4**10
        wide = make([[1 - r % 2 for r in range(20)], [r % 2 for r in range(20)]], [(0, 1)])
        assert estimates(analyze(wide), WEAK, WELFARE, 10**8)["brute"].bound == 3**20 + 3**12

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
                            bound = type_scan_size(a.stripped.n, a.types, goal)
                            if bound <= budget:
                                fixed, per_node = ROUTE["ilp"].cost(goal)
                                seconds = fixed + per_node * bound + ROUTE["ilp"].fallback(
                                    a, notion, goal, est["brute"])
                                assert est[pick].seconds < seconds
        assert compared > 300 and skipped > 100


def _with_worthless(rng, count):
    """Seeded instances of n 1-4 and m 1-6 with 1 to m worthless columns
    put at random places, over every preference kind and graph shape."""
    kinds, shapes = list(PreferenceKind), [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
    out = []
    for i in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        base = gen_random(n, m - rng.randint(1, m), kinds[i % 4], shapes[i % 3], 3,
                          rng.randrange(10**6))
        rows = base.utilities.tolist()
        while len(rows[0]) < m:
            at = rng.randint(0, len(rows[0]))
            for row in rows:
                row.insert(at, 0)
        out.append(make(rows, base.arc_pairs()))
    return out


def _oracle_answer(inst, notion, goal):
    """The oracle's verdict and, under MaxWelfare, optimal welfare, or
    ``None`` when the instance is too large to enumerate here."""
    util, arcs, strict = inst.utilities.tolist(), inst.arc_pairs(), notion is STRICT
    if goal is COMPLETE:
        return oracle.exists_fair_complete(util, arcs, strict), None
    if (inst.n + 1) ** inst.m > (256 if goal is PARETO else 4096):
        return None
    if goal is PARETO:
        return oracle.exists_fair_pareto(util, arcs, strict), None
    best = oracle.max_fair_welfare(util, arcs, strict)
    return best is not None, best


def scan_nodes(k, m, goal, nodes):
    """The nodes of a brute-force scan over ``k`` candidates and ``m``
    resources that runs to its end: under Pareto the (n+1)^m partial
    allocations; otherwise the kernel's work, every assignment when one
    table holds them, else at most the kernel's bound (``nodes`` itself
    then, once checked against the bound)."""
    if goal is PARETO or k**m <= _kernels.SUFFIX_ROWS:
        return k**m
    assert nodes <= _kernels.work_bound([k] * m)
    return nodes


class TestKernelRowNodes:
    def test_nodes_are_deterministic_bounded_and_budgeted(self):
        """Every kernel row's scan (``brute``, ``sgef-fpt``, ``ident-enum``,
        ``ilp``) counts the same nodes when run again, at most its row's
        bound, and at a budget one below them stops with that many nodes,
        over every goal, notion and preference kind."""
        rng = random.Random(211)
        kinds, shapes = list(PreferenceKind), [GraphKind.STRONGLY_CONNECTED, None]
        runs = Counter()
        for trial in range(120):
            inst = gen_random(rng.randint(1, 5), rng.randint(0, 7), kinds[trial % 4],
                              shapes[trial % 2], 3, 9000 + trial)
            a = analyze(inst)
            for notion in (WEAK, STRICT):
                for goal in (COMPLETE, PARETO, WELFARE):
                    for route in ROUTES:
                        if route.name == "struct-fpt" or route.bound is None \
                                or not route.applies(a, notion, goal):
                            continue
                        res = route.run(a, notion, goal, 10**8)
                        doc = (route.name, notion, goal, inst.to_document())
                        assert route.run(a, notion, goal, 10**8) == res, doc
                        assert res.nodes <= route.bound(a, goal), doc
                        if res.nodes:
                            cut = route.run(a, notion, goal, res.nodes - 1)
                            assert (cut.status, cut.nodes) == (Status.BUDGET, res.nodes - 1), doc
                            runs[route.name] += 1
        assert min(runs[name] for name in ("brute", "sgef-fpt", "ident-enum", "ilp")) >= 20, runs


class TestStrippedBrute:
    """Auto's brute force and the MaxWelfare fallback scan the stripped
    instance; forced brute force scans the original one."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """The instance and result of every brute-force scan dispatch runs."""
        scans = []
        brute = dispatch.brute_force

        def spy(inst, notion, goal, budget):
            res = brute(inst, notion, goal, budget)
            scans.append((inst, res))
            return res

        monkeypatch.setattr(dispatch, "brute_force", spy)
        return scans

    def test_auto_brute_and_welfare_fallbacks_match_forced_brute(self, scans):
        runs = Counter()
        for inst in _with_worthless(random.Random(191), 150):
            a = analyze(inst)
            n, m, kept = inst.n, inst.m, a.stripped.m
            assert kept < m
            for notion in (WEAK, STRICT):
                for goal in (COMPLETE, PARETO, WELFARE):
                    scans.clear()
                    want = solve(inst, notion, goal, "brute")
                    # forced brute force scans the original instance
                    assert [s[0] for s in scans] == [inst]
                    if goal is not COMPLETE:
                        assert want.nodes == scan_nodes(n + 1, m, goal, want.nodes)
                    truth = _oracle_answer(inst, notion, goal)
                    if truth is not None:
                        found = want.status is Status.FEASIBLE
                        assert truth == (found, want.welfare if found and goal is WELFARE
                                         else None)
                    for algo in ["auto"] + [r.name for r in ROUTES[:-1]
                                            if r.applies(a, notion, goal)]:
                        scans.clear()
                        got = solve(inst, notion, goal, algo)
                        if not scans:
                            continue
                        doc = (algo, got.route, notion, goal, inst.to_document())
                        assert got.route == "brute" or got.route.endswith("->brute"), doc
                        runs[got.route == "brute", goal] += 1
                        (scanned, res), = scans
                        assert scanned == a.stripped, doc
                        if goal is COMPLETE and res.status is Status.FEASIBLE:
                            assert res.nodes <= _kernels.work_bound([n] * kept), doc
                        else:
                            k = n + (goal is not COMPLETE)
                            assert res.nodes == scan_nodes(k, kept, goal, res.nodes), doc
                        assert (got.status, got.welfare, got.allocation) == (
                            want.status, want.welfare, want.allocation), doc
                        if got.allocation is not None:
                            assert verify_fairness(inst, got.allocation, notion) is None, doc
        # auto's brute under every goal, and fallbacks after other routes
        assert runs[True, COMPLETE] >= 10 and runs[True, PARETO] >= 20, runs
        assert runs[True, WELFARE] >= 50 and runs[False, WELFARE] >= 30, runs

    def test_pareto_budget_boundary_is_the_stripped_count(self):
        # general rows on a cycle, so only brute serves Pareto: two valued
        # resources and two worthless ones among 2 agents
        inst = make([[1, 0, 2, 0], [2, 0, 1, 0]], [(0, 1), (1, 0)])
        assert analyze(inst).stripped.m == 2
        for notion in (WEAK, STRICT):
            want = solve(inst, notion, PARETO, "brute")
            assert want.status is Status.FEASIBLE and want.nodes == 3**4
            res = solve(inst, notion, PARETO, budget=3**2)
            assert (res.route, res.status, res.nodes) == ("brute", want.status, 3**2)
            assert res.allocation == want.allocation
            res = solve(inst, notion, PARETO, budget=3**2 - 1)
            assert (res.route, res.status, res.nodes) == ("brute", Status.BUDGET, 3**2 - 1)
            forced = solve(inst, notion, PARETO, "brute", budget=3**2)
            assert (forced.status, forced.nodes) == (Status.BUDGET, 3**2)

    def test_strict_shared_valuation_infeasible_is_final(self):
        rng = random.Random(193)
        kinds = [PreferenceKind.IDENTICAL, PreferenceKind.IDENTICAL_ZERO_ONE]
        shapes = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
        settled = Counter()
        for trial in range(150):
            inst = gen_random(rng.randint(1, 4), rng.randint(0, 5), kinds[trial % 2],
                              shapes[trial % 3], 3, rng.randrange(10**6))
            a = analyze(inst)
            for algo in [r.name for r in ROUTES if r.applies(a, STRICT, WELFARE)]:
                res = solve(inst, STRICT, WELFARE, algo)
                assert res.route == algo, (algo, inst.to_document())
                if res.status is Status.INFEASIBLE:
                    settled[algo] += 1
                    assert oracle.max_fair_welfare(
                        inst.utilities.tolist(), inst.arc_pairs(), True) is None
        assert all(settled[algo] >= 5 for algo in ("alg1", "ident-enum", "sgef-fpt", "ilp")), \
            settled
        # under weak fairness an infeasible complete answer still falls through
        two = [(0, 1), (1, 0)]
        res = solve(make([[1], [1]], two), WEAK, WELFARE)
        assert (res.route, res.status, res.welfare) == ("scc-id01->brute", Status.FEASIBLE, 0)
        res = solve(make([[2], [2]], two), WEAK, WELFARE, "ident-enum")
        assert (res.route, res.status, res.welfare) == ("ident-enum->brute", Status.FEASIBLE, 0)

    def test_final_row_is_charged_no_fallback(self):
        # sgef-fpt's case 2 on a 5-agent path: three valued resources for
        # the four agents with an out-arc
        path = make([[2, 1, 3]] * 5, [(i, i + 1) for i in range(4)])
        a = analyze(path)
        assert a.sgef_owners is None
        est = estimates(a, STRICT, WELFARE, 10**8)
        assert est["sgef-fpt"] == (0, NO_SEARCH_S)
        assert ROUTE["ilp"].fallback(a, WEAK, WELFARE, est["brute"]) == est["brute"].seconds
        res = solve(path, STRICT, WELFARE)
        assert (res.route, res.status, res.nodes) == ("sgef-fpt", Status.INFEASIBLE, 0)
        assert brute_force(path, STRICT, WELFARE).status is Status.INFEASIBLE

    def test_no_agents_answers_on_the_original_instance(self, scans):
        inst = Instance([], ["r0", "r1"], np.zeros((0, 2), dtype=np.int64), [])
        for notion in (WEAK, STRICT):
            for goal in (COMPLETE, PARETO, WELFARE):
                want = brute_force(inst, notion, goal)
                scans.clear()
                res = solve(inst, notion, goal)
                assert [s[0] for s in scans] == [inst]
                assert res.route == "brute"
                assert (res.status, res.allocation, res.welfare, res.nodes) == (
                    want.status, want.allocation, want.welfare, want.nodes)
                assert res.status is (Status.INFEASIBLE if goal is COMPLETE
                                      else Status.FEASIBLE)


class TestLazyCondensation:
    def test_only_struct_fpt_builds_the_condensation(self, monkeypatch):
        """The analysis classifies the graph without a condensation; only
        ``struct-fpt`` reads one, built once, on the solve's stripped
        instance."""
        import gefalloc.graphs as graphs

        calls = []
        condensation = graphs.scc_condensation
        monkeypatch.setattr(graphs, "scc_condensation",
                            lambda inst: calls.append(inst) or condensation(inst))
        rng = random.Random(151)
        kinds, shapes = list(PreferenceKind), [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
        auto = struct = built = 0
        for trial in range(120):
            inst = gen_random(rng.randint(1, 5), rng.randint(0, 5), kinds[trial % 4],
                              shapes[trial % 3], 3, 9000 + trial)
            a = analyze(inst)
            for notion in (WEAK, STRICT):
                for goal in (COMPLETE, PARETO, WELFARE):
                    for algo in ["auto"] + [r.name for r in ROUTES if r.applies(a, notion, goal)]:
                        calls.clear()
                        res = solve(inst, notion, goal, algo, budget=10**6)
                        if "struct-fpt" not in res.route:
                            auto += algo == "auto"
                            assert calls == [], (algo, res.route)
                            continue
                        struct += 1
                        built += len(calls)
                        # one condensation, of the stripped instance, unless
                        # nothing of value is left to deal
                        assert len(calls) == (a.stripped.m > 0), res.route
                        if calls:
                            assert calls[0] == a.stripped
                        want = brute_force(inst, notion, goal, 10**6)
                        assert res.status == want.status, inst.to_document()
        assert auto > 600 and struct > 200 and built > 100
