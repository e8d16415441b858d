import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gefalloc import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    PreferenceKind,
    ValidationError,
    classify_preferences,
    dominates,
    gen_random,
    is_complete,
    parse_allocation,
    parse_validate,
    strip_zero_resources,
    utilitarian_welfare,
    utility_profile,
    verify_fairness,
)
from gefalloc.model import allocation_document, enumerate_partial_allocations

import oracle


def make(utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    return Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )


class TestValidation:
    def test_duplicate_agent_names(self):
        with pytest.raises(ValidationError):
            Instance(["a", "a"], ["r"], [[1], [1]], [])

    def test_duplicate_resource_names(self):
        with pytest.raises(ValidationError):
            Instance(["a"], ["r", "r"], [[1, 1]], [])

    def test_negative_utility(self):
        with pytest.raises(ValidationError):
            make([[-1]], [])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Instance(["a", "b"], ["r"], [[1]], [])

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            make([[1], [1]], [(0, 0)])

    def test_duplicate_arc(self):
        with pytest.raises(ValidationError):
            make([[1], [1]], [(0, 1), (0, 1)])

    def test_arc_out_of_range(self):
        with pytest.raises(ValidationError):
            make([[1], [1]], [(0, 2)])

    def test_overflow_guard(self):
        big = 2 ** 61
        with pytest.raises(ValidationError):
            make([[big, big], [big, big]], [])

    def test_arcs_stored_sorted(self):
        inst = make([[1], [1], [1]], [(2, 0), (0, 1), (1, 2)])
        assert inst.arc_pairs() == ((0, 1), (1, 2), (2, 0))

    def test_parse_validate_round_trip(self):
        inst = gen_random(3, 4, PreferenceKind.GENERAL, None, 3, 11)
        again = parse_validate(inst.to_document())
        assert again == inst

    def test_parse_validate_missing_field(self):
        with pytest.raises(ValidationError):
            parse_validate({"agents": [], "resources": [], "utilities": []})

    def test_parse_validate_rejects_non_int(self):
        doc = {
            "agents": ["a"],
            "resources": ["r"],
            "utilities": [[1.5]],
            "arcs": [],
        }
        with pytest.raises(ValidationError):
            parse_validate(doc)


class TestAllocation:
    def test_document_round_trip(self):
        inst = make([[1, 2, 0], [2, 1, 1]], [(0, 1)])
        alloc = Allocation({0: 1, 2: 0})
        doc = allocation_document(inst, alloc)
        assert doc["unassigned"] == ["r1"]
        back = parse_allocation(inst, doc)
        assert back.assignment == alloc.assignment

    def test_unknown_name_rejected(self):
        inst = make([[1]], [])
        with pytest.raises(ValidationError):
            parse_allocation(inst, {"assignment": {"nope": "a0"}})

    def test_welfare_and_profile(self):
        inst = make([[3, 1], [2, 5]], [])
        alloc = Allocation({0: 0, 1: 1})
        assert utilitarian_welfare(inst, alloc) == 8
        assert utility_profile(inst, alloc) == (3, 5)
        assert is_complete(inst, alloc)


class TestVerifyFairness:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_double_loop(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(0, 3))
        util = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        arcs = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        inst = make(util, sorted(arcs))
        owners = data.draw(
            st.lists(st.integers(0, n), min_size=m, max_size=m)
        )
        assignment = {r: a for r, a in enumerate(owners) if a < n}
        alloc = Allocation(assignment)
        for notion, strict in (
            (FairnessNotion.WEAK, False),
            (FairnessNotion.STRICT, True),
        ):
            got = verify_fairness(inst, alloc, notion)
            want = oracle.fair(util, inst.arc_pairs(), assignment, strict)
            assert (got is None) == want

    def test_reports_first_violated_arc(self):
        inst = make([[0, 1], [1, 1], [1, 1]], [(0, 1), (0, 2), (1, 2)])
        alloc = Allocation({0: 1, 1: 2})
        assert verify_fairness(inst, alloc, FairnessNotion.WEAK) == (0, 2)


class TestClassification:
    def test_most_specific_wins(self):
        inst = make([[1, 0], [1, 0]], [])
        assert (
            classify_preferences(inst).kind is PreferenceKind.IDENTICAL_ZERO_ONE
        )

    def test_identical(self):
        inst = make([[2, 0], [2, 0]], [])
        prefs = classify_preferences(inst)
        assert prefs.kind is PreferenceKind.IDENTICAL
        assert prefs.u_diff == 2

    def test_zero_one(self):
        inst = make([[1, 0], [0, 1]], [])
        assert classify_preferences(inst).kind is PreferenceKind.ZERO_ONE

    def test_general(self):
        inst = make([[2, 0], [0, 1]], [])
        assert classify_preferences(inst).kind is PreferenceKind.GENERAL

    def test_empty_matrix(self):
        inst = make([], [])
        assert (
            classify_preferences(inst).kind is PreferenceKind.IDENTICAL_ZERO_ONE
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.data())
    def test_matches_elementwise_definition(self, n, m, top, data):
        rows = data.draw(st.lists(
            st.lists(st.integers(0, top), min_size=m, max_size=m), min_size=1, max_size=n,
        ))
        rows = rows + [rows[0]] * (n - len(rows))  # often identical rows
        prefs = classify_preferences(make(rows, []))
        identical = all(row == rows[0] for row in rows)
        zero_one = all(v in (0, 1) for row in rows for v in row)
        assert prefs.identical == identical and prefs.zero_one == zero_one
        assert prefs.u_diff == len({v for row in rows for v in row})


class TestStripZeros:
    def test_drops_worthless_columns(self):
        inst = make([[1, 0, 2], [3, 0, 0]], [(0, 1)])
        stripped, keep = strip_zero_resources(inst)
        assert keep == [0, 2]
        assert stripped.m == 2
        assert [int(v) for v in stripped.utilities[0]] == [1, 2]

    def test_no_op_when_all_valued(self):
        inst = make([[1, 1]], [])
        stripped, keep = strip_zero_resources(inst)
        assert stripped.m == 2 and keep == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 6), st.data())
    def test_matches_per_column_definition(self, n, m, data):
        rows = [data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)) for _ in range(n)]
        inst = Instance([f"a{i}" for i in range(n)], [f"r{j}" for j in range(m)],
                        np.array(rows, dtype=np.int64).reshape(n, m), [])
        stripped, keep = strip_zero_resources(inst)
        assert keep == [j for j in range(m) if any(row[j] > 0 for row in rows)]
        assert stripped.resources == tuple(inst.resources[j] for j in keep)


class TestEnumerationOrder:
    def test_canonical_partial_order(self):
        inst = make([[1, 1], [1, 1]], [])
        seen = [
            tuple(sorted(a.assignment.items()))
            for a in enumerate_partial_allocations(inst)
        ]
        assert len(seen) == 9
        # resource 0 varies slowest; agents come before "unassigned"
        assert seen[0] == ((0, 0), (1, 0))
        assert seen[1] == ((0, 0), (1, 1))
        assert seen[2] == ((0, 0),)
        assert seen[-1] == ()


def test_dominates():
    inst = make([[1, 1], [1, 1]], [])
    a = Allocation({0: 0, 1: 1})
    b = Allocation({0: 0})
    assert dominates(inst, a, b)
    assert not dominates(inst, b, a)
    assert not dominates(inst, a, a)


def test_goal_enum_values():
    assert EfficiencyGoal.MAX_WELFARE.value == "welfare"
