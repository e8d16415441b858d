import functools
from math import comb
import itertools
import random
import sys
import time
import tracemalloc

import pytest

from gefalloc import (
    _kernels,
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    GuardError,
    Instance,
    classify_graph,
    is_complete,
    solve,
    verify_fairness,
)
from gefalloc.exact import (
    ResourceTypeTable,
    _deal_plan,
    _sgef_owners,
    brute_force,
    sgef_fpt_search_size,
    solve_identical_enum,
    solve_ilp,
    solve_sgef_fpt_resources,
    solve_type_ilp,
    type_scan_size,
)
from gefalloc.generators import gen_random
from gefalloc.model import PreferenceKind, Status, utilitarian_welfare
from gefalloc.structures import _kept_components

import oracle
import structures_ref

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT
COMPLETE = EfficiencyGoal.COMPLETE


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

    def test_kernel_welfare_is_the_allocations_welfare(self):
        # the complete scan (kernel mode 0) and the welfare scan (mode 1)
        # report their witness's welfare; the Pareto scan's is computed
        seen = 0
        for inst in corpus(60, seed0=6):
            for notion in (WEAK, STRICT):
                for goal in EfficiencyGoal:
                    res = brute_force(inst, notion, goal)
                    if res.allocation is None:
                        continue
                    seen += 1
                    assert type(res.welfare) is int
                    assert all(type(a) is int for a in res.allocation.assignment.values())
                    assert res.welfare == utilitarian_welfare(inst, res.allocation)
                    assert res.welfare == oracle.welfare(inst.utilities.tolist(),
                                                         res.allocation.assignment)
        assert seen > 200

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
        # strict 4-cycle, general preferences, eight types of one copy: the
        # scan screens the 4^2 prefixes of its block and answers in the
        # first prefix's 4^6 assignments
        inst = make(
            [[1, 2, 3, 4, 5, 6, 7, 8], [8, 7, 6, 5, 4, 3, 2, 1],
             [2, 3, 5, 7, 11, 13, 17, 19], [4, 1, 3, 1, 5, 9, 2, 6]],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        full = solve_ilp(inst, STRICT)
        assert full.status is Status.FEASIBLE and full.nodes == 4**2 + 4**6
        assert solve_ilp(inst, STRICT, budget=full.nodes) == full
        # the result counts the budget, none under a budget <= 0
        for budget, nodes in ((10, 10), (16, 16), (full.nodes - 1, full.nodes - 1), (0, 0),
                              (-1, 0)):
            cut = solve(inst, STRICT, EfficiencyGoal.COMPLETE, algorithm="ilp", budget=budget)
            assert cut.status is Status.BUDGET and cut.nodes == nodes, budget

    def test_search_deeper_than_the_recursion_limit(self):
        # 50 agents x 30 resources: no search's bound fits, so auto takes the
        # ilp, whose 1,500 (type, agent) counts once made a search deeper
        # than the recursion limit; the scan screens a block of 50^2 prefixes
        # and answers in the first one's 50^2 assignments
        rng = random.Random(5)
        inst = make([[rng.randint(0, 3) for _ in range(30)] for _ in range(50)],
                    [(0, 1), (1, 0)])
        assert inst.n * len(ResourceTypeTable.build(inst).types) > sys.getrecursionlimit()
        res = solve(inst, WEAK, EfficiencyGoal.COMPLETE)
        assert (res.status, res.route, res.nodes) == (Status.FEASIBLE, "ilp", 2 * 50**2)
        assert set(res.allocation.assignment.values()) == {49}
        assert verify_fairness(inst, res.allocation, WEAK) is None

    def test_only_maximisers_take_a_type(self):
        # the deal order's first count vector gives every copy to the last
        # agent; under Pareto only agent 0, the column's maximiser, may take
        # the type
        inst = make([[2, 2], [1, 1]], [])
        table = ResourceTypeTable.build(inst)
        for goal, owner in ((COMPLETE, 1), (EfficiencyGoal.PARETO, 0)):
            res = solve_type_ilp(inst, table, 0, goal)
            assert res.status is Status.FEASIBLE
            assert set(res.allocation.assignment.values()) == {owner}


def type_corpus():
    """Seeded instances whose columns repeat (n 1-4, m 1-7, columns drawn
    from a pool of one to three), on random digraphs; then one type of 14
    copies among 6 agents, C(19, 5) = 11,628 deals, more than the default
    ``SUFFIX_ROWS``, beside one type of one copy, on a path."""
    rng = random.Random(71)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 7)
        pool = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        cols = [rng.choice(pool) for _ in range(m)]
        yield make([[col[i] for col in cols] for i in range(n)],
                   [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.5])
    yield make([[1] * 14 + [v] for v in (2, 1, 0, 3, 1, 2)], [(i, i + 1) for i in range(5)])


TYPE_CORPUS = list(type_corpus())


@functools.lru_cache(maxsize=None)
def type_reference(case, notion, goal):
    inst = TYPE_CORPUS[case]
    return oracle.type_search(inst.utilities.tolist(), inst.arc_pairs(), notion is STRICT,
                              goal is not EfficiencyGoal.COMPLETE)


class TestTypeScan:
    @pytest.mark.parametrize("rows", [1, 4, 36, _kernels.SUFFIX_ROWS])
    def test_matches_reference(self, monkeypatch, rows):
        """The type scan's status and witness are the reference's first fair
        count vector in the deal order, to every agent (complete goal) or to
        the column's maximisers (Pareto), under both notions.  Its nodes are
        deterministic and at most the row's bound; at one less budget it
        stops with that many nodes.  At small ``SUFFIX_ROWS`` nearly every
        type is dealt over several digits; the 14-copy type runs at the
        default only, where it alone is."""
        monkeypatch.setattr(_kernels, "SUFFIX_ROWS", rows)
        split = 0
        for case, inst in enumerate(TYPE_CORPUS):
            if inst.m > 7 and rows != 1 << 13:
                continue
            table = ResourceTypeTable.build(inst)
            for notion in (WEAK, STRICT):
                for goal in (COMPLETE, EfficiencyGoal.PARETO):
                    want = type_reference(case, notion, goal)
                    got = solve_ilp(inst, notion, goal=goal, table=table)
                    doc = (notion, goal, inst.to_document())
                    assert got.status is (Status.INFEASIBLE if want is None
                                          else Status.FEASIBLE), doc
                    if want is not None:
                        assert got.allocation.assignment == want, doc
                    assert got.nodes <= type_scan_size(inst.n, table, goal), doc
                    assert solve_ilp(inst, notion, got.nodes, goal, table) == got, doc
                    cut = solve_ilp(inst, notion, got.nodes - 1, goal, table)
                    assert (cut.status, cut.nodes) == (Status.BUDGET, got.nodes - 1), doc
                    split += any(len(_deal_plan(mult, len(inst.agents) if goal is COMPLETE
                                                else col.count(max(col)), max(rows, 2))) > 1
                                 for mult, col in zip(table.multiplicity, table.types))
        # solves with a type dealt over several digits
        assert split >= {1: 100, 4: 50, 36: 5}.get(rows, 4)

    def test_digits_and_tables_fit_the_suffix(self, monkeypatch):
        """The 14-copy type among 6 agents is dealt over digits of at most
        ``SUFFIX_ROWS`` candidates (a run of four agents and one of one, the
        last agent taking the rest), and no gain table, neither the suffix
        table nor a block holds more than ``SUFFIX_ROWS`` columns: the memory
        bound O((A+n)·(2·SUFFIX_ROWS+m)) holds with m the number of digits."""
        splits = []

        class Spy(_kernels._Split):
            def __init__(self, *args):
                super().__init__(*args)
                splits.append(self)

        monkeypatch.setattr(_kernels, "_Split", Spy)
        inst = TYPE_CORPUS[-1]
        res = solve_ilp(inst, WEAK)
        assert res.allocation.assignment == type_reference(len(TYPE_CORPUS) - 1, WEAK,
                                                           EfficiencyGoal.COMPLETE)
        (split,) = splits
        rows = _kernels.SUFFIX_ROWS
        assert split.counts == [comb(18, 4), 15, 6]
        assert all(gains.shape[1] <= rows for gains in split.inner)
        assert split.table.shape[1] <= rows
        assert all(block.shape[1] <= rows for _, block in split.blocks())

    def test_outer_digits_are_never_tabulated(self):
        """80 agents on a cycle share one type of 30 copies: 26 digits of
        C(33, 3) = 5,456 deals each and one of 31.  At a budget of one the
        scan tabulates the suffix's and the middle's digit alone, and
        answers within a second and 16 MB; gain tables for every digit
        would take about 130 MB."""
        inst = make([[1] * 30] * 80, [(i, (i + 1) % 80) for i in range(80)])
        tracemalloc.start()
        start = time.perf_counter()
        res = solve(inst, WEAK, EfficiencyGoal.COMPLETE, algorithm="ilp", budget=1)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert (res.status, res.nodes) == (Status.BUDGET, 1)
        assert elapsed < 1.0
        assert peak < 16 * 2**20


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


def kept_agents(inst):
    """Agents of the components the struct-fpt prune keeps."""
    graph = classify_graph(inst)
    cond = graph.condensation
    return tuple(sorted(v for ci in _kept_components(inst, graph)
                        for v in cond.components[ci]))


class TestPrune:
    def test_oversized_component_removed(self):
        # a 3-cycle with only two resources can never be fed
        inst = make([[1, 1]] * 4, [(0, 1), (1, 2), (2, 0), (3, 0)])
        assert kept_agents(inst) == (3,)

    def test_removal_takes_reachable_agents_along(self):
        # the 3-cycle watches agent 3; agent 3 must go with it
        inst = make([[1, 1]] * 5, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3)])
        assert kept_agents(inst) == (4,)

    def test_in_degree_rule(self):
        # agent 3 is watched by three singleton components, m = 2
        inst = make([[1, 1]] * 4, [(0, 3), (1, 3), (2, 3)])
        assert kept_agents(inst) == (0, 1, 2)

    def test_keeps_feasible_instances_intact(self):
        inst = make([[1, 1], [1, 1]], [(0, 1)])
        assert kept_agents(inst) == (0, 1)

    def test_one_pass_matches_fixed_point_loop(self):
        rng = random.Random(23)
        pruned = 0
        for _ in range(2000):
            n, m = rng.randint(1, 9), rng.randint(0, 4)
            p = rng.choice((0.1, 0.2, 0.35, 0.5))
            arcs = [(a, b) for a in range(n) for b in range(n)
                    if a != b and rng.random() < p]
            inst = make([[1] * m] * n, arcs)
            kept = kept_agents(inst)
            assert kept == structures_ref.prune_fixed_point(inst), (n, m, arcs)
            pruned += len(kept) < n
        assert pruned >= 500

    def test_verdict_preserved_on_random_identical(self):
        rng = random.Random(21)
        for trial in range(30):
            inst = gen_random(
                rng.randint(1, 4), rng.randint(0, 3), PreferenceKind.IDENTICAL,
                None, 3, 500 + trial,
            )
            sub = structures_ref.induced(inst, kept_agents(inst))
            before = brute_force(inst, WEAK, EfficiencyGoal.COMPLETE)
            after = brute_force(sub, WEAK, EfficiencyGoal.COMPLETE)
            assert before.status == after.status


def case5_family(count, seed):
    """Strict case 5 (no source, k < m < n): k inner agents on a cycle, the
    other agents sinks, some sharing a set of watchers; inner and sink
    indices interleave.  Yields each instance with the owners the case split
    must pick: the inner agents and, per watcher set, its first min(m, size)
    sinks."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 6)
        k = rng.randint(2, n - 2)
        m = rng.randint(k + 1, n - 1)
        agents = rng.sample(range(n), n)
        inner, sinks = agents[:k], sorted(agents[k:])
        arcs = {(inner[i], inner[(i + 1) % k]) for i in range(k)}
        groups: dict[frozenset, list[int]] = {}
        for s in sinks:
            if groups and rng.random() < 0.5:
                watchers = rng.choice(sorted(groups, key=sorted))
            else:
                watchers = frozenset(rng.sample(inner, rng.randint(1, k)))
            groups.setdefault(watchers, []).append(s)
            arcs.update((a, s) for a in watchers)
        util = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        owners = sorted(inner + [s for group in groups.values() for s in group[:m]])
        yield make(util, sorted(arcs)), owners


def first_fair_over(inst, owners):
    """First strictly fair complete assignment with owners from ``owners``,
    in canonical order (resource 0 slowest), or None."""
    util, arcs = oracle.instance_args(inst)
    for choice in itertools.product(owners, repeat=inst.m):
        asg = dict(enumerate(choice))
        if oracle.fair(util, arcs, asg, True):
            return asg
    return None


class TestSgefFpt:
    def test_against_brute(self):
        for inst in corpus(80, seed0=8):
            got = solve_sgef_fpt_resources(inst, _sgef_owners(inst, classify_graph(inst)))
            want = brute_force(inst, STRICT, EfficiencyGoal.COMPLETE)
            assert got.status == want.status, inst.to_document()
            if got.allocation is not None:
                assert verify_fairness(inst, got.allocation, STRICT) is None
                assert is_complete(inst, got.allocation)

    def test_case5_against_brute(self):
        verdicts = set()
        for inst, owners in case5_family(300, seed=11):
            graph = classify_graph(inst)
            assert not graph.sources and inst.n - len(graph.sinks) < inst.m < inst.n
            picked = _sgef_owners(inst, graph)
            got = solve_sgef_fpt_resources(inst, picked)
            want = brute_force(inst, STRICT, EfficiencyGoal.COMPLETE)
            assert got.status == want.status, inst.to_document()
            verdicts.add(got.status)
            if got.allocation is not None:
                assert verify_fairness(inst, got.allocation, STRICT) is None
                assert is_complete(inst, got.allocation)
                assert got.allocation.assignment == first_fair_over(inst, owners)
            if got.nodes > 0:
                cut = solve_sgef_fpt_resources(inst, picked, budget=got.nodes - 1)
                assert cut.status is Status.BUDGET and cut.nodes == got.nodes - 1
                assert solve_sgef_fpt_resources(inst, picked, budget=got.nodes) == got
        assert verdicts == {Status.FEASIBLE, Status.INFEASIBLE}

    def test_case4_needs_the_source_candidate(self):
        # two isolated sources plus a 2-cycle; the third resource must
        # land outside the cycle, i.e. on an agent nobody watches
        inst = make(
            [[1, 0, 5], [0, 1, 5], [0, 0, 1], [0, 0, 1]],
            [(0, 1), (1, 0)],
        )
        res = solve_sgef_fpt_resources(inst, _sgef_owners(inst, classify_graph(inst)))
        assert res.status is Status.FEASIBLE
        assert verify_fairness(inst, res.allocation, STRICT) is None

    def test_search_size_covers_the_search(self):
        # case 5 with two sinks watched by different inner agents: 4^3
        # assignments, all unfair
        two_sink_types = make([[1, 1, 1]] * 4, [(0, 1), (1, 0), (0, 2), (1, 3)])
        family = [inst for inst, _ in case5_family(60, seed=12)]
        for inst in [two_sink_types, *corpus(80, seed0=8), *family]:
            owners = _sgef_owners(inst, classify_graph(inst))
            size = sgef_fpt_search_size(owners, inst.m)
            res = solve_sgef_fpt_resources(inst, owners)
            assert size >= res.nodes, inst.to_document()
            if res.status is Status.INFEASIBLE:
                assert size == res.nodes, inst.to_document()
        owners = _sgef_owners(two_sink_types, classify_graph(two_sink_types))
        assert sgef_fpt_search_size(owners, two_sink_types.m) == 64
