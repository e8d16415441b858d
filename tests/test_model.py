import enum

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
    analyze,
    classify_preferences,
    gen_random,
    is_complete,
    parse_allocation,
    parse_validate,
    strip_zero_resources,
    utilitarian_welfare,
    utility_profile,
    verify_fairness,
)
from gefalloc.model import UTILITY_BOUND, allocation_document

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

    @pytest.mark.parametrize("arcs", [
        np.array([[0.7, 1.2]]),
        [(0.9, 1.5)],
    ], ids=["array", "list"])
    def test_fractional_arc_endpoint(self, arcs):
        with pytest.raises(ValidationError):
            Instance(["a", "b"], ["r"], [[1], [1]], arcs)

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

    @pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", None, [1], []])
    @pytest.mark.parametrize("where", ["last", "middle-row"])
    def test_parse_validate_rejects_non_int_cells(self, bad, where):
        util = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        if where == "last":
            util[2][2] = bad
        else:
            util[1][0] = bad
        doc = {"agents": ["a", "b", "c"], "resources": ["r", "s", "t"],
               "utilities": util, "arcs": []}
        with pytest.raises(ValidationError, match="^utilities must be integers$"):
            parse_validate(doc)

    def test_parse_validate_accepts_int_subclass(self):
        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 3

        doc = {"agents": ["a"], "resources": ["r", "s"],
               "utilities": [[Level.LOW, Level.HIGH]], "arcs": []}
        assert parse_validate(doc).utilities.tolist() == [[1, 3]]

    @pytest.mark.parametrize("util, message", [
        ([[1, True]], "utilities must be integers"),
        ([[1, 2**70]], "utilities must fit in 64-bit integers"),
        ([[1], [1, 2]], "utility matrix shape does not match agents x resources"),
    ], ids=["bool", "beyond-64-bits", "ragged"])
    def test_list_input_checked_like_parse_validate(self, util, message):
        """The constructor, given lists or tuples, and ``parse_validate``
        check nested rows alike."""
        agents = [f"a{i}" for i in range(len(util))]
        doc = {"agents": agents, "resources": ["x", "y"], "utilities": util, "arcs": []}
        for build in (lambda: parse_validate(doc),
                      lambda: Instance(agents, ["x", "y"], util, []),
                      lambda: Instance(agents, ["x", "y"], tuple(map(tuple, util)), [])):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                build()

    def test_empty_list_for_no_resources_accepted(self):
        assert Instance(["a", "b"], [], [], []).utilities.shape == (2, 0)

    def test_list_of_numpy_integers_accepted(self):
        inst = Instance(["a"], ["x", "y", "z"], [[np.int8(1), np.uint64(2), 3]], [])
        assert inst.utilities.tolist() == [[1, 2, 3]]

    def test_parse_validate_checks_utilities_before_arcs(self):
        doc = {"agents": ["a"], "resources": ["r"], "utilities": [[2**64]],
               "arcs": [["a", "b"]]}
        with pytest.raises(ValidationError,
                           match="^utilities must fit in 64-bit integers$"):
            parse_validate(doc)

    def test_parse_validate_utility_beyond_64_bits(self):
        doc = {"agents": ["a"], "resources": ["r", "s"],
               "utilities": [[1, 2**64]], "arcs": []}
        with pytest.raises(ValidationError,
                           match="^utilities must fit in 64-bit integers$"):
            parse_validate(doc)


class TestStorageType:
    """Utilities are stored as a read-only copy in the narrowest signed
    integer type that holds their largest value."""

    @pytest.mark.parametrize("top, dtype", [
        (0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16),
        (32768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
        (UTILITY_BOUND - 1, np.int64),
    ])
    def test_narrowest_signed_type_of_the_largest_value(self, top, dtype):
        inst = make([[top]], [])
        assert inst.utilities.dtype == dtype
        assert int(inst.utilities[0, 0]) == top

    @pytest.mark.parametrize("top, dtype", [(1, np.int8), (127, np.int8), (200, np.int16)])
    def test_same_storage_from_every_source(self, top, dtype):
        rows = [[0, top, 1], [top, 0, 0]]
        types = (np.int64, np.uint16, np.int8) if top <= 127 else (np.int64, np.uint16)
        sources = [rows] + [np.array(rows, dtype=t) for t in types]
        built = [Instance(["a", "b"], ["x", "y", "z"], src, [(0, 1)]) for src in sources]
        for src, inst in zip(sources, built):
            assert inst.utilities.dtype == dtype
            assert inst.utilities.tolist() == rows
            assert inst == built[0]
            if isinstance(src, np.ndarray):
                assert not np.shares_memory(inst.utilities, src)

    def test_stored_array_is_read_only(self):
        inst = make([[1, 2], [3, 4]], [])
        with pytest.raises(ValueError):
            inst.utilities[0, 0] = 5

    @pytest.mark.parametrize("top, dtype", [(3, np.int8), (300, np.int16), (2**40, np.int64)])
    def test_strip_and_derived_keep_the_type(self, top, dtype):
        inst = make([[top, 0, 1], [0, 0, top]], [(0, 1)])
        stripped, keep = strip_zero_resources(inst)
        assert keep == [0, 2]
        assert stripped.utilities.dtype == inst.utilities.dtype == dtype
        derived = Instance._derived(inst.agents, inst.resources, np.ones((2, 3), dtype=np.int32),
                                    inst.arcs, inst.arc_pairs())
        assert derived.utilities.dtype == np.int32
        assert not derived.utilities.flags.writeable

    def test_large_small_valued_matrix_takes_one_byte_per_cell(self):
        rows = np.random.default_rng(0).integers(0, 4, (200, 10_000))
        inst = Instance([f"a{i}" for i in range(200)], [f"r{j}" for j in range(10_000)],
                        rows, [])
        assert inst.utilities.nbytes == 2_000_000
        assert np.array_equal(inst.utilities, rows)


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


def classify_reference(util: np.ndarray) -> tuple[PreferenceKind, int]:
    """The preference class through ``np.unique``, as the analysis once
    computed it."""
    if util.size == 0:
        return PreferenceKind.IDENTICAL_ZERO_ONE, 0
    identical = bool((util == util[0]).all())
    values = np.unique(util[0] if identical else util)
    zero_one = bool(np.all(values <= 1))
    kind = {
        (True, True): PreferenceKind.IDENTICAL_ZERO_ONE,
        (True, False): PreferenceKind.IDENTICAL,
        (False, True): PreferenceKind.ZERO_ONE,
        (False, False): PreferenceKind.GENERAL,
    }[identical, zero_one]
    return kind, int(values.size)


@st.composite
def utility_matrices(draw):
    """Matrices of every shape up to 5x6, including empty ones, in int8,
    uint16 or int64, with values up to the dtype's or the instance's bound,
    drawn from a few distinct values so that repeats and identical rows are
    common."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    dtype = draw(st.sampled_from([np.int8, np.uint16, np.int64]))
    top = min(int(np.iinfo(dtype).max), UTILITY_BOUND // max(n * m, 1) - 1)
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=4, unique=True))
    rows = [draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
            for _ in range(draw(st.integers(min(n, 1), n)))]
    rows += rows[:1] * (n - len(rows))  # often identical rows
    return np.array(rows, dtype=dtype).reshape(n, m)


class TestClassificationReference:
    @pytest.mark.parametrize("util", [
        np.zeros((0, 0), dtype=np.int64),
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((3, 0), dtype=np.int64),
        np.array([[5]]),
        np.array([[0]]),
        np.full((3, 4), 7, dtype=np.uint16),
        np.array([[3, 0, 3, 1]] * 3, dtype=np.int8),
        np.array([[UTILITY_BOUND // 4 - 1, 0], [1, 0]]),
    ], ids=["0x0", "0x3", "3x0", "1x1", "1x1-zero", "all-equal", "identical-rows",
            "near-bound"])
    def test_corner_matrices(self, util):
        inst = Instance([f"a{i}" for i in range(util.shape[0])],
                        [f"r{j}" for j in range(util.shape[1])], util, [])
        prefs = classify_preferences(inst)
        assert (prefs.kind, prefs.u_diff) == classify_reference(inst.utilities)

    @settings(max_examples=300, deadline=None)
    @given(utility_matrices())
    def test_matches_unique_reference(self, util):
        self.test_corner_matrices(util)


class TestStripZeros:
    def test_drops_worthless_columns(self):
        inst = make([[1, 0, 2], [3, 0, 0]], [(0, 1)])
        stripped, keep = strip_zero_resources(inst)
        assert keep == [0, 2]
        assert stripped.m == 2
        assert [int(v) for v in stripped.utilities[0]] == [1, 2]

    def test_stripped_instance_shares_the_arc_pairs(self):
        inst = make([[1, 0, 2], [3, 0, 0]], [(1, 0), (0, 1)])
        assert analyze(inst).stripped.arc_pairs() is inst.arc_pairs()

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 6), st.sampled_from([np.int8, np.uint16, np.int64]),
           st.data())
    def test_derived_matches_validated(self, n, m, dtype, data):
        """The stripped instance skips validation; it must equal the one the
        validating constructor builds from the same data, pairs and
        read-only arrays included."""
        rows = [data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
                for _ in range(n)]
        arcs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda arc: arc[0] != arc[1]), unique=True)) if n > 1 else []
        inst = Instance([f"a{i}" for i in range(n)], [f"r{j}" for j in range(m)],
                        np.array(rows, dtype=dtype).reshape(n, m), arcs)
        stripped, keep = strip_zero_resources(inst)
        validated = Instance(list(inst.agents), [inst.resources[j] for j in keep],
                             np.array(rows, dtype=dtype).reshape(n, m)[:, keep], arcs)
        assert stripped == validated
        assert stripped.arc_pairs() == validated.arc_pairs() == tuple(sorted(arcs))
        for array in (stripped.utilities, stripped.arcs):
            with pytest.raises(ValueError):
                array[...] = 0


def strip_and_classify_reference(rows, m):
    """Kept columns, then the kind and u_diff of the stripped matrix, in
    plain Python."""
    keep = [j for j in range(m) if any(row[j] for row in rows)]
    stripped = [[row[j] for j in keep] for row in rows]
    values = {v for row in stripped for v in row}
    if not values:
        return keep, PreferenceKind.IDENTICAL_ZERO_ONE, 0
    identical = all(row == stripped[0] for row in stripped)
    zero_one = values <= {0, 1}
    kind = {
        (True, True): PreferenceKind.IDENTICAL_ZERO_ONE,
        (True, False): PreferenceKind.IDENTICAL,
        (False, True): PreferenceKind.ZERO_ONE,
        (False, False): PreferenceKind.GENERAL,
    }[identical, zero_one]
    return keep, kind, len(values)


class TestEdgeMatrices:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("rows, m", [
        ([], 0),
        ([], 3),
        ([[], [], []], 0),
        ([[0, 0, 0, 0]] * 3, 4),
        ([[0, 2, 0, 1]], 4),
        ([[3, 0, 3, 0, 1]] * 4, 5),
        ([[1, 1, 1]] * 3, 3),
        ([[1, 0, 1], [0, 1, 1]], 3),
        ([[2, 0, 2], [2, 0, 1]], 3),
    ], ids=["n0-m0", "n0", "m0", "all-zero", "one-agent", "identical-zero-columns",
            "zero-one-no-zero", "zero-one-no-zero-column", "general-zero-column"])
    def test_kept_columns_kind_and_values(self, rows, m, dtype):
        n = len(rows)
        inst = Instance([f"a{i}" for i in range(n)], [f"r{j}" for j in range(m)],
                        np.array(rows, dtype=dtype).reshape(n, m), [])
        stripped, keep = strip_zero_resources(inst)
        prefs = classify_preferences(stripped)
        assert (keep, prefs.kind, prefs.u_diff) == strip_and_classify_reference(rows, m)
        assert stripped.resources == tuple(inst.resources[j] for j in keep)
        assert stripped.utilities.shape == (n, len(keep))
        assert stripped.utilities.dtype == inst.utilities.dtype


class TestEnumerationOrder:
    def test_canonical_partial_order(self):
        inst = make([[1, 1], [1, 1]], [])
        seen = [
            tuple(sorted(a.assignment.items()))
            for a in oracle.enumerate_partial_allocations(inst)
        ]
        assert len(seen) == 9
        # resource 0 varies slowest; agents come before "unassigned"
        assert seen[0] == ((0, 0), (1, 0))
        assert seen[1] == ((0, 0), (1, 1))
        assert seen[2] == ((0, 0),)
        assert seen[-1] == ()


def test_goal_enum_values():
    assert EfficiencyGoal.MAX_WELFARE.value == "welfare"
