import random

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
    utilitarian_welfare,
    verify_fairness,
)
from gefalloc.exact import brute_force
from gefalloc.generators import gen_random
from gefalloc.graphs import GraphKind
from gefalloc.model import PreferenceKind, Status, strip_zero_resources
from gefalloc.poly import (
    solve_efficient_dag,
    solve_gef_dag,
    solve_gef_id01_scc,
    solve_sgef_id01,
    solve_sgef_identical_manyvalues,
)

import oracle
from oracle import max_welfare_bound

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT
COMPLETE = EfficiencyGoal.COMPLETE


def make(utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    return Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )


class TestGefDag:
    def test_everything_to_lowest_source(self):
        inst = make([[1, 2], [3, 1], [1, 1]], [(1, 0), (1, 2)])
        res = solve_gef_dag(inst, classify_graph(inst))
        assert res.status is Status.FEASIBLE
        assert res.allocation.assignment == {0: 1, 1: 1}
        assert verify_fairness(inst, res.allocation, WEAK) is None

    def test_guard_on_cycle(self):
        with pytest.raises(GuardError):
            solve(make([[1], [1]], [(0, 1), (1, 0)]), WEAK, COMPLETE, algorithm="dag")

    def test_always_feasible_on_random_dags(self):
        rng = random.Random(3)
        for trial in range(30):
            inst = gen_random(
                rng.randint(1, 4), rng.randint(0, 4),
                PreferenceKind.GENERAL, GraphKind.ACYCLIC, 3, trial,
            )
            res = solve_gef_dag(inst, classify_graph(inst))
            assert res.status is Status.FEASIBLE
            assert is_complete(inst, res.allocation)
            assert verify_fairness(inst, res.allocation, WEAK) is None


class TestId01Scc:
    def test_divisibility(self):
        for n in (1, 2, 3):
            for m in range(0, 7):
                arcs = [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
                inst = make([[1] * m] * n, arcs)
                res = solve_gef_id01_scc(inst)
                assert (res.status is Status.FEASIBLE) == (m % n == 0)
                if res.allocation is not None:
                    assert is_complete(inst, res.allocation)
                    assert verify_fairness(inst, res.allocation, WEAK) is None

    def test_guard_nonidentical(self):
        with pytest.raises(GuardError):
            solve(
                make([[1], [0]], [(0, 1), (1, 0)]), WEAK, COMPLETE, algorithm="scc-id01"
            )


class TestAlg1:
    def test_cycle_infeasible(self):
        inst = make([[1, 1], [1, 1]], [(0, 1), (1, 0)])
        assert solve_sgef_id01(inst, classify_graph(inst)).status is Status.INFEASIBLE

    def test_threshold_on_path(self):
        # chain of 3: labels 2,1,0 so the flip sits at m = 3
        for m in range(0, 6):
            inst = make([[1] * m] * 3 if m else [[], [], []], [(0, 1), (1, 2)])
            res = solve_sgef_id01(inst, classify_graph(inst))
            assert (res.status is Status.FEASIBLE) == (m >= 3)

    def test_matches_brute_on_random_dags(self):
        rng = random.Random(11)
        for trial in range(40):
            inst = gen_random(
                rng.randint(1, 4), rng.randint(0, 5),
                PreferenceKind.IDENTICAL_ZERO_ONE, GraphKind.ACYCLIC, 1, trial,
            )
            stripped, _ = strip_zero_resources(inst)
            got = solve_sgef_id01(stripped, classify_graph(stripped))
            want = brute_force(stripped, STRICT, EfficiencyGoal.COMPLETE)
            assert got.status == want.status
            if got.allocation is not None:
                assert verify_fairness(stripped, got.allocation, STRICT) is None
                assert is_complete(stripped, got.allocation)

    def test_labels_bound_consumption(self):
        inst = make([[1] * 4] * 4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        labels = classify_graph(inst).labels
        assert sum(labels) == 2 + 1 + 1 + 0
        assert solve_sgef_id01(inst, classify_graph(inst)).status is Status.FEASIBLE


class TestManyValues:
    def test_needs_more_values_than_agents(self):
        inst = make([[1, 1], [1, 1]], [(0, 1)])
        with pytest.raises(GuardError):
            solve(inst, STRICT, COMPLETE, algorithm="manyvalues")

    def test_feasible_with_witness(self):
        inst = make([[3, 1, 2], [3, 1, 2]], [(0, 1)])
        res = solve_sgef_identical_manyvalues(inst, classify_graph(inst))
        assert res.status is Status.FEASIBLE
        assert verify_fairness(inst, res.allocation, STRICT) is None
        assert is_complete(inst, res.allocation)

    def test_random_guarded_instances(self):
        rng = random.Random(17)
        done = 0
        for trial in range(300):
            if done >= 25:
                break
            n = rng.randint(1, 3)
            m = rng.randint(n + 1, 6)
            inst = gen_random(
                n, m, PreferenceKind.IDENTICAL, GraphKind.ACYCLIC, 9, 900 + trial
            )
            stripped, _ = strip_zero_resources(inst)
            row = [int(v) for v in stripped.utilities[0]] if stripped.m else []
            if len(set(row)) <= stripped.n:
                continue
            done += 1
            res = solve_sgef_identical_manyvalues(stripped, classify_graph(stripped))
            assert res.status is Status.FEASIBLE
        assert done >= 10


class TestAlg2:
    def test_result_is_fair_and_pareto(self):
        from gefalloc import is_pareto_efficient

        rng = random.Random(23)
        for trial in range(25):
            inst = gen_random(
                rng.randint(1, 3), rng.randint(0, 4),
                PreferenceKind.GENERAL, GraphKind.ACYCLIC, 3, 400 + trial,
            )
            res = solve_efficient_dag(inst)
            assert res.status is Status.FEASIBLE
            assert verify_fairness(inst, res.allocation, WEAK) is None
            assert is_pareto_efficient(inst, res.allocation)

    def test_zero_one_meets_welfare_bound(self):
        rng = random.Random(27)
        for trial in range(25):
            inst = gen_random(
                rng.randint(1, 3), rng.randint(0, 4),
                PreferenceKind.ZERO_ONE, GraphKind.ACYCLIC, 1, 600 + trial,
            )
            res = solve_efficient_dag(inst)
            assert utilitarian_welfare(inst, res.allocation) == max_welfare_bound(inst)

    def test_may_leave_worthless_resources_unassigned(self):
        inst = make([[0, 1]], [])
        res = solve_efficient_dag(inst)
        assert res.allocation.assignment == {1: 0}

    @staticmethod
    def assert_matches_reference(inst):
        util, arcs = oracle.instance_args(inst)
        want = oracle.efficient_dag_greedy(util, arcs, inst.m)
        res = solve_efficient_dag(inst)
        assert res.allocation.assignment == want, inst.to_document()
        assert res.welfare == oracle.welfare(util, want)

    def test_matches_quadratic_reference(self):
        rng = random.Random(31)
        for trial in range(600):
            inst = gen_random(
                rng.randint(1, 7), rng.randint(0, 12),
                list(PreferenceKind)[trial % 4], GraphKind.ACYCLIC,
                rng.randint(1, 4), 900 + trial,
            )
            self.assert_matches_reference(inst)

    def test_matches_quadratic_reference_at_scale(self):
        # n=100, m=1500 general utilities in 0..3 on a random DAG whose
        # agents each watch up to two of the next eight in a shuffled order
        rng = np.random.default_rng(5)
        n, m = 100, 1500
        util = rng.integers(0, 4, (n, m))
        util[0, 0], util[1, 0] = 3, 0
        order = rng.permutation(n)
        arcs = {
            (int(order[i]), int(order[j]))
            for i in range(n - 1)
            for j in rng.choice(np.arange(i + 1, min(n, i + 9)),
                                size=min(2, n - 1 - i), replace=False)
        }
        self.assert_matches_reference(make(util.tolist(), sorted(arcs)))
