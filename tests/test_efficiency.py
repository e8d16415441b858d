import random

import pytest

from gefalloc import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    is_complete,
    is_pareto_efficient,
    solve_efficient,
    utilitarian_welfare,
    verify_fairness,
)
from gefalloc import _kernels
from gefalloc.exact import brute_force
from gefalloc.generators import gen_random
from gefalloc.graphs import GraphKind
from gefalloc.model import PreferenceKind, Status

import oracle
from oracle import max_welfare_bound

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT
PARETO, WELFARE = EfficiencyGoal.PARETO, EfficiencyGoal.MAX_WELFARE


def make(utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    return Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )


class TestWelfareBound:
    def test_column_maxima(self):
        assert max_welfare_bound(make([[3, 1], [2, 5]], [])) == 8

    def test_empty(self):
        assert max_welfare_bound(make([], [])) == 0


class TestParetoCheck:
    def test_complete_but_not_pareto(self):
        # giving the worthless-to-its-owner resource away helps agent 1
        inst = make([[0], [1]], [])
        full = Allocation({0: 0})
        assert is_complete(inst, full)
        assert is_pareto_efficient(inst, full) is False
        assert is_pareto_efficient(inst, Allocation({0: 1}))

    def test_empty_bundle_can_be_efficient(self):
        inst = make([[0], [0]], [])
        assert is_pareto_efficient(inst, Allocation({}))

    def test_matches_oracle_on_random_allocations(self):
        rng = random.Random(47)
        for trial in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            inst = gen_random(n, m, PreferenceKind.GENERAL, None, 3, 8000 + trial)
            util, _ = oracle.instance_args(inst)
            asg = {r: rng.randrange(n) for r in range(m) if rng.random() < 0.8}
            base = oracle.profile(util, asg)
            dominated = any(
                all(x >= y for x, y in zip(oracle.profile(util, other), base))
                and any(x > y for x, y in zip(oracle.profile(util, other), base))
                for other in oracle.all_partial_assignments(n, m)
            )
            assert is_pareto_efficient(inst, Allocation(asg)) == (not dominated)


def small_instances():
    """0x0, 0x2 and 2x0, then seeded random instances with n 1-3, m 0-4
    over every preference kind and graph shape."""
    yield from (make([], []), Instance([], ["r0", "r1"], [], []), make([[], []], [(0, 1)]))
    rng = random.Random(71)
    kinds = list(PreferenceKind)
    shapes = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
    for i in range(60):
        yield gen_random(rng.randint(1, 3), rng.randint(0, 4), kinds[i % 4],
                         shapes[i % 3], 3, 7100 + i)


def check_pareto_witnesses():
    """Pareto brute force against the oracle: witness and verdict at a
    budget of its gate, ``pareto_bound``, with at most that many nodes and
    all n^m complete assignments when one table holds them; and status
    ``BUDGET`` one below the gate."""
    for inst in small_instances():
        util, arcs = oracle.instance_args(inst)
        gate = _kernels.pareto_bound(inst.n, inst.m)
        complete = max(inst.n, 1) ** inst.m
        for notion in (WEAK, STRICT):
            cut = brute_force(inst, notion, PARETO, gate - 1)
            assert (cut.status, cut.nodes) == (Status.BUDGET, max(gate - 1, 0))
            res = brute_force(inst, notion, PARETO, gate)
            want = oracle.first_fair_pareto(util, arcs, notion is STRICT, inst.m)
            assert res.nodes <= gate
            assert res.nodes == complete or complete > _kernels.SUFFIX_ROWS
            if want is None:
                assert res.status is Status.INFEASIBLE, inst.to_document()
            else:
                assert res.status is Status.FEASIBLE, inst.to_document()
                assert res.allocation == Allocation(want)


def check_efficiency_on_every_allocation():
    """``is_pareto_efficient`` against the oracle on every partial allocation."""
    for inst in small_instances():
        util, _ = oracle.instance_args(inst)
        for asg in oracle.all_partial_assignments(inst.n, inst.m):
            want = not oracle.dominated(util, asg, inst.m)
            assert is_pareto_efficient(inst, Allocation(asg)) == want


class TestParetoAgainstOracle:
    def test_brute_force_witness_and_nodes(self):
        check_pareto_witnesses()

    def test_efficiency_check_on_every_allocation(self):
        check_efficiency_on_every_allocation()

    @pytest.mark.parametrize("rows", [4, 36])
    def test_scans_across_blocks(self, monkeypatch, rows):
        """The same checks with small suffix tables, so that the scans walk
        blocks of several prefixes (36) and several blocks (4)."""
        monkeypatch.setattr(_kernels, "SUFFIX_ROWS", rows)
        check_pareto_witnesses()
        check_efficiency_on_every_allocation()

    def test_efficiency_check_budget_boundary(self):
        inst = make([[0], [1]], [])
        # one table holds the complete allocations r0->a0 and r0->a1, and
        # one test of both decides: r0->a1 dominates r0->a0 and the empty
        # allocation, and nothing dominates r0->a1
        for asg, want in (({0: 0}, False), ({}, False), ({0: 1}, True)):
            assert is_pareto_efficient(inst, Allocation(asg), budget=2) is want
            assert is_pareto_efficient(inst, Allocation(asg), budget=1) is None

    def test_brute_force_budget_boundary(self):
        # the gate is the 3^2 partial allocations; the scan tests the 2^2
        # complete ones
        inst = make([[1, 2], [2, 1]], [(0, 1)])
        res = brute_force(inst, WEAK, PARETO, budget=9)
        assert res.status is Status.FEASIBLE and res.nodes == 4
        res = brute_force(inst, WEAK, PARETO, budget=8)
        assert res.status is Status.BUDGET and res.nodes == 8


class TestSolveEfficient:
    def test_rejects_complete_goal(self):
        with pytest.raises(ValueError):
            solve_efficient(make([[1]], []), WEAK, EfficiencyGoal.COMPLETE)

    def test_against_brute_all_routes(self):
        rng = random.Random(53)
        kinds = list(PreferenceKind)
        for trial in range(80):
            inst = gen_random(
                rng.randint(1, 3), rng.randint(0, 4),
                kinds[trial % len(kinds)], None, 3, 9000 + trial,
            )
            for notion in (WEAK, STRICT):
                for goal in (PARETO, WELFARE):
                    got = solve_efficient(inst, notion, goal)
                    want = brute_force(inst, notion, goal)
                    assert got.status == want.status, inst.to_document()
                    if goal is WELFARE and got.status is Status.FEASIBLE:
                        assert got.welfare == want.welfare
                    if got.allocation is not None:
                        assert verify_fairness(inst, got.allocation, notion) is None
                        if goal is PARETO:
                            assert is_pareto_efficient(inst, got.allocation)

    def test_zero_one_feasible_hits_the_bound(self):
        rng = random.Random(59)
        for trial in range(30):
            inst = gen_random(
                rng.randint(1, 3), rng.randint(0, 4),
                PreferenceKind.ZERO_ONE, None, 1, 9500 + trial,
            )
            res = solve_efficient(inst, WEAK, WELFARE)
            if res.status is Status.FEASIBLE and res.allocation is not None:
                want = brute_force(inst, WEAK, WELFARE)
                assert res.welfare == want.welfare

    def test_identical_links_completeness_and_efficiency(self):
        # with identical preferences and no worthless resources, a fair
        # complete allocation exists iff a fair Pareto-efficient one does
        # iff a fair welfare-maximal one is complete
        rng = random.Random(61)
        for trial in range(30):
            n, m = rng.randint(1, 3), rng.randint(1, 4)
            inst = gen_random(
                n, m, PreferenceKind.IDENTICAL, None, 3, 9800 + trial
            )
            if inst.m and int(inst.utilities.min()) == 0:
                continue
            comp = brute_force(inst, WEAK, EfficiencyGoal.COMPLETE)
            par = solve_efficient(inst, WEAK, PARETO)
            assert comp.status == par.status

    def test_degenerate_shapes(self):
        assert solve_efficient(make([], []), WEAK, PARETO).status is Status.FEASIBLE
        one = make([[]], [])
        assert solve_efficient(one, STRICT, WELFARE).status is Status.FEASIBLE
