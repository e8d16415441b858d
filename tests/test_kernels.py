import random
import time
import tracemalloc

import numpy as np
import pytest

from gefalloc import EfficiencyGoal, FairnessNotion, Instance, _kernels
from gefalloc.exact import brute_force
from gefalloc.graphs import GraphKind
from gefalloc.model import UTILITY_BOUND, PreferenceKind, Status
from gefalloc.generators import gen_random

import oracle


def run_both(utilities, arcs, delta, candidates, mode, limit=10**7):
    """Run ``search`` and the counter reference, asserting they agree.  The
    counter needs a candidate when there are resources; ``search`` answers
    that case before it builds a table."""
    got = _kernels.search(utilities, arcs, delta, candidates, mode, limit)
    assert [type(x) for x in got] == [int, np.ndarray, int, int]
    assert got[1].dtype == np.int64
    if len(candidates) or not np.shape(utilities)[1]:
        status, assignment, welfare, nodes = oracle.counter_search(
            utilities, arcs, delta, candidates, mode, limit)
        assert (status, int(welfare), int(nodes)) == (got[0], got[2], got[3])
        assert np.array_equal(assignment, got[1])
    return got


def run_pareto(utilities, arcs, delta):
    """``first_fair_efficient`` against the reference at limits -1, 0,
    (n+1)^m - 1 and (n+1)^m: below (n+1)^m status 2 with ``max(limit, 0)``
    nodes, at it the reference's witness or status 1, with (n+1)^m nodes.
    Returns the reference's witness."""
    n, m = np.shape(utilities)
    total = (n + 1) ** m
    plain = np.asarray(utilities).tolist()
    want = oracle.first_fair_pareto(plain, arcs, bool(delta), m)
    for limit in (-1, 0, total - 1, total):
        got = _kernels.first_fair_efficient(utilities, arcs, delta, limit)
        assert [type(x) for x in got] == [int, np.ndarray, int, int]
        status, assignment, welfare, nodes = got
        if limit < total:
            assert (status, nodes) == (2, max(limit, 0)), limit
        elif want is None:
            assert (status, nodes) == (1, total), (utilities, arcs)
        else:
            assert (status, nodes) == (0, total), (utilities, arcs)
            assert {r: a for r, a in enumerate(assignment.tolist()) if a >= 0} == want
            assert welfare == oracle.welfare(plain, want)
    return want


def check_dominating(utilities, target, limits):
    """``first_dominating`` against the reference at each of ``limits`` and
    at -1, 0, (n+1)^m - 1 and (n+1)^m: the first dominator's position, else
    status 1 with (n+1)^m nodes once the limit reaches them, else status 2
    with ``max(limit, 0)``."""
    n, m = np.shape(utilities)
    total = (n + 1) ** m
    plain = np.asarray(utilities).tolist()
    for limit in sorted({*limits, -1, 0, total - 1, total}):
        pos = oracle.first_dominating(plain, target, m, limit)
        want = ((0, pos) if pos is not None else
                (1, total) if limit >= total else (2, max(limit, 0)))
        assert _kernels.first_dominating(utilities, target, limit) == want, (target, limit)


def test_backend_flag():
    assert _kernels.backend() == "numpy"


class TestFirstFairMode:
    def test_finds_canonical_first_witness(self):
        # two agents, two resources, no arcs: first complete assignment
        # in canonical order gives everything to agent 0
        status, assignment, welfare, nodes = run_both(
            [[1, 1], [1, 1]], [], 0, [0, 1], 0
        )
        assert status == 0
        assert list(assignment) == [0, 0]
        assert nodes == 1

    def test_infeasible_counts_all_nodes(self):
        # a 2-cycle with a single resource is never strictly fair
        status, _, _, nodes = run_both([[1], [1]], [(0, 1), (1, 0)], 1, [0, 1], 0)
        assert status == 1
        assert nodes == 2

    def test_budget_exceeded(self):
        status, _, _, nodes = run_both(
            [[1, 1, 1], [1, 1, 1]], [(0, 1), (1, 0)], 1, [0, 1], 0, limit=3
        )
        assert status == 2
        assert nodes == 3

    def test_unassigned_candidate(self):
        # candidate -1 lets a resource stay unallocated; agent 1 watches
        # agent 0 and only values the resource itself, so the only fair
        # outcomes give it to agent 1 or nobody; with candidates (0, -1)
        # the kernel must fall through to -1
        status, assignment, welfare, nodes = run_both(
            [[0], [1]], [(1, 0)], 0, [0, -1], 0
        )
        assert status == 0
        assert list(assignment) == [-1]

    def test_no_candidates_with_resources(self):
        for m in (1, 3):
            got = run_both([[1] * m], [], 0, [], 0)
            assert (got[0], list(got[1]), got[2], got[3]) == (1, [-1] * m, -1, 0)


class TestWelfareMode:
    def test_picks_best_and_first_among_ties(self):
        status, assignment, welfare, nodes = run_both(
            [[2, 1], [1, 2]], [], 0, [0, 1], 1
        )
        assert status == 0
        assert welfare == 4
        assert list(assignment) == [0, 1]
        assert nodes == 4

    def test_matches_python_oracle_on_random_instances(self):
        rng = random.Random(13)
        for trial in range(40):
            n, m = rng.randint(1, 3), rng.randint(0, 4)
            inst = gen_random(n, m, PreferenceKind.GENERAL, None, 3, 1000 + trial)
            util, arcs = oracle.instance_args(inst)
            delta = trial % 2
            status, assignment, welfare, nodes = run_both(
                util, arcs, delta, list(range(n)) + [-1], 1
            )
            want = oracle.max_fair_welfare(util, arcs, bool(delta))
            if want is None:
                assert status == 1
            else:
                assert status == 0 and welfare == want


class TestAgainstExhaustiveEnumeration:
    def test_first_fair_matches_scan(self):
        rng = random.Random(29)
        for trial in range(40):
            n, m = rng.randint(1, 3), rng.randint(0, 4)
            inst = gen_random(n, m, PreferenceKind.GENERAL, None, 3, 2000 + trial)
            util, arcs = oracle.instance_args(inst)
            delta = trial % 2
            status, assignment, _, _ = run_both(util, arcs, delta, list(range(n)), 0)
            found = None
            for asg in oracle.all_complete_assignments(n, m):
                if oracle.fair(util, arcs, asg, bool(delta)):
                    found = asg
                    break
            if found is None:
                assert status == 1
            else:
                assert status == 0
                assert {r: int(a) for r, a in enumerate(assignment)} == found


# The counter reference runs as plain Python, so property checks keep each
# of its scans to at most this many nodes.
COUNTER_NODES = 1500


@pytest.mark.parametrize("rows", [1, 4, 36, _kernels.SUFFIX_ROWS])
def test_table_backend_matches_counter(monkeypatch, rows):
    """The table scan against the mixed-radix counter over n 0-5, m 0-11,
    candidate subsets with and without -1, no arcs, both deltas and modes,
    and limits from 0 to total+2 that cut inside a prefix, at its boundary,
    at a block's boundary and nowhere.  Small suffix sizes make every scan
    span many prefixes, and m up to 11 gives the walk outer digits, so that
    it spans many blocks."""
    monkeypatch.setattr(_kernels, "SUFFIX_ROWS", rows)
    rng = random.Random(rows)
    spans = 0
    for trial in range(160):
        n, m = rng.randint(0, 5), rng.randint(0, 11)
        pool = list(range(n)) + ([-1] if trial % 2 else [])
        cands = rng.sample(pool, rng.randint(1 if m else 0, len(pool))) if pool else []
        if m and not cands:
            continue
        util = np.array([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)],
                        dtype=np.int64).reshape(n, m)
        arcs = [] if trial % 5 == 0 else [
            (a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.4
        ]
        total = len(cands) ** m
        split = _kernels._Split(util, (), cands)
        size = split.table.shape[1]
        block = size * len(cands) ** (split.prefix - split.outer)
        spans += split.outer > 0 and block < min(total, COUNTER_NODES)
        limits = {0, size - 1, size, size + 1, block - 1, block, block + 1, 2 * block,
                  rng.randint(0, total + 2), total, total + 2}
        for limit in sorted(x for x in limits if 0 <= x <= COUNTER_NODES):
            args = (util, arcs, rng.randint(0, 1), cands, rng.randint(0, 1), limit)
            want = oracle.counter_search(*args)
            got = _kernels.search(*args)
            assert (got[0], got[2], got[3]) == (want[0], int(want[2]), int(want[3])), args
            assert np.array_equal(got[1], want[1])
    # with a small suffix, many scans run past the end of their first block
    assert spans >= 10 or rows == 1 << 13


def test_one_table_scans_skip_the_walk(monkeypatch):
    """When one suffix table holds every assignment, ``search`` in both
    modes, ``first_fair_efficient`` and ``first_dominating`` test the
    empty prefix alone and never enter the block walk; they still answer
    as the references do, also at limits that cut the table and at limits
    of zero and below."""
    def walk(*args):
        raise AssertionError("a one-table scan entered the block walk")

    monkeypatch.setattr(_kernels._Split, "blocks", walk)
    rng = random.Random(53)
    for trial in range(40):
        n, m = rng.randint(1, 3), rng.randint(0, 5)
        util = np.array([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)],
                        dtype=np.int64).reshape(n, m)
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.5]
        cands = list(range(n)) + ([-1] if trial % 2 else [])
        assert _kernels._Split(util, arcs, cands).prefix == 0
        total = len(cands) ** m
        for limit in sorted({-1, 0, 1, total // 2, total, total + 1}):
            for delta in (0, 1):
                for mode in (0, 1):
                    run_both(util, arcs, delta, cands, mode, limit)
        plain = util.tolist()
        for delta in (0, 1):
            run_pareto(util, arcs, delta)
        owners = [rng.randint(-1, n - 1) for _ in range(m)]
        base = oracle.profile(plain, {r: a for r, a in enumerate(owners) if a >= 0})
        for target in (base, [p + 1 for p in base], [0] * n):
            check_dominating(util, target, (1, 7))


def test_table_backend_bounded_before_first_node():
    """With 6^40 assignments the table scan reaches its budget of five
    nodes within a second and 64 MB: it never tabulates the prefixes."""
    util = np.ones((6, 40), dtype=np.int64)
    arcs = [(a, (a + 1) % 6) for a in range(6)]
    tracemalloc.start()
    start = time.perf_counter()
    status, _, _, nodes = _kernels.search(util, arcs, 1, range(6), 0, 5)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (status, nodes) == (2, 5)
    assert elapsed < 1.0
    assert peak < 64 * 2**20


def test_table_backend_bounded_at_huge_budget():
    """Without arcs the first assignment of 6^40 is fair: at a budget of
    2^62 the table scan finds it after one node, within a second and
    64 MB, so no table grows with the budget."""
    util = np.ones((6, 40), dtype=np.int64)
    tracemalloc.start()
    start = time.perf_counter()
    status, assignment, _, nodes = _kernels.search(util, [], 0, range(6), 0, 2**62)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert (status, nodes) == (0, 1)
    assert not assignment.any()
    assert elapsed < 1.0
    assert peak < 64 * 2**20


def reference_table(util, arcs, cands, prefix):
    """The suffix table by a loop over assignments: column j holds, per arc
    (a, b), the suffix's value(a,a) - value(a,b), then per agent the value
    of its suffix bundle, for the j-th suffix assignment in canonical order."""
    n, m = util.shape
    k = len(cands)
    columns = []
    for j in range(k ** (m - prefix)):
        owners = []
        for _ in range(m - prefix):
            j, d = divmod(j, k)
            owners.append(cands[d])
        owners = dict(zip(range(m - 1, prefix - 1, -1), owners))
        held = [[r for r, o in owners.items() if o == i] for i in range(n)]
        slack = [sum(int(util[a, r]) for r in held[a]) - sum(int(util[a, r]) for r in held[b])
                 for a, b in arcs]
        profile = [sum(int(util[i, r]) for r in held[i]) for i in range(n)]
        columns.append(slack + profile)
    return np.array(columns, dtype=np.int64).reshape(len(columns), len(arcs) + n).T


@pytest.mark.parametrize("n, m, cands, arcs, prefix", [
    (3, 0, [0, 1, 2], [(0, 1), (2, 1)], 0),          # s = 0: no resources
    (0, 4, [-1], [], 0),                              # zero width: no agents, no arcs
    (2, 13, [0, 1], [(0, 1)], 0),                     # a full suffix of 2**13 rows
    (3, 10, [0, 2, -1], [(0, 1), (1, 2), (2, 0)], 2),  # 3**8 rows after two digits
], ids=["m0", "width0", "full-suffix", "with-prefix"])
def test_table_layout(n, m, cands, arcs, prefix):
    """The table equals a loop build and is C-contiguous: the scans test it
    one row at a time, and another memory order made them several times
    slower."""
    rng = random.Random(n * 100 + m)
    util = np.array([[rng.randint(0, 5) for _ in range(m)] for _ in range(n)],
                    dtype=np.int64).reshape(n, m)
    split = _kernels._Split(util, arcs, cands)
    assert split.prefix == prefix
    assert split.table.flags.c_contiguous
    assert np.array_equal(split.table, reference_table(util, arcs, cands, prefix))


def frontier_rows(frontier):
    return [tuple(int(v) for v in row) for row in frontier]


@pytest.mark.parametrize("pairs", [1, 7, _kernels.PRUNE_PAIRS])
def test_pareto_frontier_matches_oracle(monkeypatch, pairs):
    """The frontier equals the distinct undominated profiles of all partial
    assignments, in order of first occurrence and in the table type, over
    n 0-6 and m 0-5 with small utilities (many equal profiles) and some
    all-zero columns, also when pruning compares one or seven pairs at a
    time, and whether the frontier is pruned before every sum, whenever it
    would pass five points, or only at the end (no sum here has 2**20)."""
    monkeypatch.setattr(_kernels, "PRUNE_PAIRS", pairs)
    rng = random.Random(pairs)
    for trial in range(60):
        n, m = rng.randint(0, 6), rng.randint(0, 5)
        while (n + 1) ** m > 20000:
            m -= 1
        top = rng.choice([1, 2, 3])
        util = np.array([[rng.randint(0, top) for _ in range(m)] for _ in range(n)],
                        dtype=np.int64).reshape(n, m)
        for r in range(m):
            if rng.random() < 0.2:
                util[:, r] = 0
        want = oracle.pareto_profiles(util.tolist(), m)
        for front_rows in (1, 5, 1 << 20):
            monkeypatch.setattr(_kernels, "FRONT_ROWS", front_rows)
            got = _kernels.pareto_frontier(util)
            assert got.shape[1] == n
            assert got.dtype == table_type(int(util.sum(axis=1).max(initial=0)))
            assert frontier_rows(got) == want, (util, front_rows)


# Largest row sums on each side of the points where the table type widens
# (int8 up to 63, int16 up to 16383, int32 up to 2**30 - 1), and of the
# points where a type that holds only ±(s+1) would widen.
ROW_SUMS = [63, 64, 127, 128, 16383, 16384, 32767, 32768,
            2**30 - 1, 2**30, 2**31 - 1, 2**31]


def table_type(s):
    for t in (np.int8, np.int16, np.int32):
        if 2 * s + 1 <= np.iinfo(t).max:
            return t
    return np.int64


def boundary_instances(rng, s):
    """Instances whose largest row sum is exactly ``s``: agent 0's row,
    the others' rows below it.  Every other agent watches agent 0 and
    agent 0 watches agent 1, so slacks reach ``-s`` and ``s``."""
    for n, m in ((2, 3), (3, 3), (2, 4)):
        cuts = sorted(rng.randint(0, s) for _ in range(m - 1))
        rows = [[b - a for a, b in zip([0] + cuts, cuts + [s])]]
        for _ in range(n - 1):
            rows.append([rng.randint(0, s // m) for _ in range(m)])
        arcs = [(0, 1)] + [(a, 0) for a in range(1, n)]
        yield np.array(rows, dtype=np.int64), arcs


def near_utility_bound():
    """The largest utilities a 2 x 3 instance may have (n * m * max below
    ``UTILITY_BOUND``): row sums near 2**61."""
    top = (UTILITY_BOUND - 1) // 6
    return np.array([[top] * 3, [top // 2, top, 0]], dtype=np.int64), [(0, 1), (1, 0)]


@pytest.mark.parametrize("rows", [1, 4, _kernels.SUFFIX_ROWS])
def test_type_boundaries(monkeypatch, rows):
    """At row sums on either side of each point where the table type
    widens, and near ``UTILITY_BOUND``, every kernel answers as the
    references do: ``search`` in both modes and both deltas, and the
    frontier, its first fair allocation and the first dominating
    allocation.  Small suffixes put most sums in the prefix blocks."""
    monkeypatch.setattr(_kernels, "SUFFIX_ROWS", rows)
    rng = random.Random(rows)
    cases = [(s, inst) for s in ROW_SUMS for inst in boundary_instances(rng, s)]
    cases.append((3 * ((UTILITY_BOUND - 1) // 6), near_utility_bound()))
    for s, (util, arcs) in cases:
        n, m = util.shape
        assert _kernels._Split(util, arcs, range(n)).table.dtype == table_type(s)
        plain = util.tolist()
        for cands in (list(range(n)), [1, -1, 0], [1]):
            for delta in (0, 1):
                for mode in (0, 1):
                    run_both(util, arcs, delta, cands, mode)
        frontier = _kernels.pareto_frontier(util)
        assert frontier.dtype == table_type(s)
        assert frontier_rows(frontier) == oracle.pareto_profiles(plain, m)
        for delta in (0, 1):
            run_pareto(util, arcs, delta)
        owners = [rng.randint(-1, n - 1) for _ in range(m)]
        base = oracle.profile(plain, {r: a for r, a in enumerate(owners) if a >= 0})
        for target in (base, [p + 1 for p in base], [p - 1 for p in base],
                       [s + 1] + [0] * (n - 1)):
            check_dominating(util, target, (7,))


def test_kernels_read_the_stored_type():
    """An instance's utilities, stored in int8 up to int64, give the same
    tables, frontier and answers as the same matrix in int64, at row sums
    on either side of each point where the table type widens."""
    rng = random.Random(0)
    cases = [case for s in ROW_SUMS for case in boundary_instances(rng, s)]
    cases.append(near_utility_bound())
    widths = set()
    for util, arcs in cases:
        n, m = util.shape
        stored = Instance([f"a{i}" for i in range(n)], [f"r{j}" for j in range(m)],
                          util, arcs).utilities
        widths.add(stored.dtype.name)
        for cands in (range(n), [1, -1, 0]):
            want, got = (_kernels._Split(u, arcs, cands).table for u in (util, stored))
            assert got.dtype == want.dtype and np.array_equal(got, want)
            for delta in (0, 1):
                for mode in (0, 1):
                    want, got = (_kernels.search(u, arcs, delta, cands, mode, 10**7)
                                 for u in (util, stored))
                    assert got[0] == want[0] and got[2:] == want[2:]
                    assert np.array_equal(got[1], want[1])
        want, got = (_kernels.pareto_frontier(u) for u in (util, stored))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for delta in (0, 1):
            want, got = (_kernels.first_fair_efficient(u, arcs, delta, 10**7)
                         for u in (util, stored))
            assert got[0] == want[0] and got[2:] == want[2:]
            assert np.array_equal(got[1], want[1])
    assert widths == {"int8", "int16", "int32", "int64"}


@pytest.mark.parametrize("rows", [1, 4, 36, _kernels.SUFFIX_ROWS])
def test_first_fair_on_frontier_matches_oracle(monkeypatch, rows):
    """The first fair allocation on the frontier, found among the complete
    assignments only, is the reference's first fair undominated partial
    one, over n 0-4 and m 0-6 with some all-zero columns and under both
    notions: with no agent too, where the empty allocation is the answer,
    and with suffixes that make the scan walk blocks or take one table.
    (n=4, m=6 is left out: the reference takes seconds there.)"""
    monkeypatch.setattr(_kernels, "SUFFIX_ROWS", rows)
    rng = random.Random(59)
    for trial in range(100):
        n, m = rng.randint(0, 4), rng.randint(0, 6)
        while (n + 1) ** m > 5000:
            m -= 1
        util = np.array([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)],
                        dtype=np.int64).reshape(n, m)
        for r in range(m):
            if rng.random() < 0.2:
                util[:, r] = 0
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.4]
        for delta in (0, 1):
            run_pareto(util, arcs, delta)


def spy_tables(monkeypatch):
    """The candidates of every ``_Split`` built from now on, one list each."""
    cands, split = [], _kernels._Split

    def spy_split(utilities, arcs, candidates, cover=0):
        cands.append(list(candidates))
        return split(utilities, arcs, candidates, cover)

    monkeypatch.setattr(_kernels, "_Split", spy_split)
    return cands


def test_pareto_brute_force_prunes_in_batches_and_scans_complete(monkeypatch):
    """When the complete assignments need a walk (suffixes of four rows
    here), Pareto brute force on a seeded 3 x 6 general instance prunes its
    frontier fewer times than it has valued resources, and looks for the
    witness among complete assignments: no table has an "unassigned"
    candidate."""
    calls, maximal = [], _kernels._maximal

    def spy_maximal(points):
        calls.append(len(points))
        return maximal(points)

    monkeypatch.setattr(_kernels, "SUFFIX_ROWS", 4)
    monkeypatch.setattr(_kernels, "_maximal", spy_maximal)
    cands = spy_tables(monkeypatch)
    inst = gen_random(3, 6, PreferenceKind.GENERAL, None, 3, 5)
    valued = int((inst.utilities > 0).any(axis=0).sum())
    for notion in FairnessNotion:
        calls.clear()
        brute_force(inst, notion, EfficiencyGoal.PARETO)
        assert 1 <= len(calls) < valued
    assert cands == [[0, 1, 2]] * 2


def refuse(*args):
    raise AssertionError("built a Pareto frontier")


def test_one_table_pareto_brute_force_builds_no_frontier(monkeypatch):
    """When one table holds every complete assignment (3^6 here), Pareto
    brute force on the seeded 3 x 6 instance above calls neither
    ``pareto_frontier`` nor ``_maximal``, and builds one table per solve,
    of the complete assignments."""
    monkeypatch.setattr(_kernels, "pareto_frontier", refuse)
    monkeypatch.setattr(_kernels, "_maximal", refuse)
    cands = spy_tables(monkeypatch)
    inst = gen_random(3, 6, PreferenceKind.GENERAL, None, 3, 5)
    for notion in FairnessNotion:
        brute_force(inst, notion, EfficiencyGoal.PARETO)
    assert cands == [[0, 1, 2]] * 2


def test_no_fair_complete_assignment_needs_no_frontier(monkeypatch):
    """Agents a and b watch each other and value three resources alike, so
    no complete assignment is fair under either notion: Pareto brute force
    answers infeasible, with the nominal 3^3 nodes, without a frontier."""
    monkeypatch.setattr(_kernels, "pareto_frontier", refuse)
    inst = Instance(["a", "b"], ["r0", "r1", "r2"], [[1, 1, 1], [1, 1, 1]], [(0, 1), (1, 0)])
    for notion in FairnessNotion:
        res = brute_force(inst, notion, EfficiencyGoal.PARETO)
        assert (res.status, res.nodes) == (Status.INFEASIBLE, 27)


def test_one_table_witness_matches_the_walk(monkeypatch):
    """The one-table witness test answers as the frontier walk does (at
    suffixes of 64 rows) over n 1-7 with n^m at most 8192, every preference
    kind and graph shape, utilities up to 1 or 3 and both notions: 0/1 and
    identical rows give many equal profiles.  With no agent or no resource
    too."""
    rng = random.Random(67)
    kinds, shapes = list(PreferenceKind), [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
    cases = [(np.zeros((0, m), dtype=np.int64), []) for m in (0, 3)]
    cases.append((np.zeros((3, 0), dtype=np.int64), [(0, 1), (1, 2), (2, 0)]))
    for trial in range(160):
        n = rng.randint(1, 7)
        top = 1
        while n > 1 and n ** (top + 1) <= _kernels.SUFFIX_ROWS:
            top += 1
        inst = gen_random(n, rng.randint(max(top - 2, 0), top + 8 * (n == 1)),
                          kinds[trial % 4], shapes[trial % 3], rng.choice([1, 3]), trial)
        cases.append((inst.utilities, inst.arcs))
    walked = 0
    for util, arcs in cases:
        n = len(util)
        for delta in (0, 1):
            monkeypatch.setattr(_kernels, "SUFFIX_ROWS", 1 << 13)
            assert _kernels._Split(util, arcs, range(n) if n else [-1]).prefix == 0
            limit = (n + 1) ** util.shape[1]
            status, got, welfare, nodes = _kernels.first_fair_efficient(util, arcs, delta, limit)
            monkeypatch.setattr(_kernels, "SUFFIX_ROWS", 64)
            walked += _kernels._Split(util, arcs, range(n) if n else [-1]).prefix > 0
            want = _kernels.first_fair_efficient(util, arcs, delta, limit)
            assert (status, welfare, nodes) == (want[0], want[2], want[3]), (util, arcs, delta)
            assert np.array_equal(got, want[1]), (util, arcs, delta)
    assert walked >= 200


def test_frontier_membership_survives_key_collisions(monkeypatch):
    """With every key multiplier 1 the membership key is the welfare, so
    many profiles off the frontier share a key with one on it; the first
    fair allocation on the frontier is still the reference's.  Suffixes of
    one row make every scan with two agents or more walk, where membership
    goes by key."""
    monkeypatch.setattr(_kernels, "SUFFIX_ROWS", 1)
    monkeypatch.setattr(_kernels, "_key_weights", lambda n: np.ones((n, 1), dtype=np.uint64))
    rng = random.Random(41)
    collided = 0
    for trial in range(60):
        n, m = rng.randint(1, 3), rng.randint(0, 4)
        inst = gen_random(n, m, PreferenceKind.GENERAL, None, 3, 3000 + trial)
        util, arcs = oracle.instance_args(inst)
        frontier = _kernels.pareto_frontier(inst.utilities)
        for delta in (0, 1):
            want = run_pareto(inst.utilities, arcs, delta)
            # the first fair allocation off the frontier with a frontier
            # welfare: its key collides before the witness is reached
            first_fair = next((asg for asg in oracle.all_partial_assignments(n, m)
                               if oracle.fair(util, arcs, asg, bool(delta))), None)
            welfares = {sum(p) for p in frontier_rows(frontier)}
            collided += (first_fair is not None and first_fair != want
                         and oracle.welfare(util, first_fair) in welfares)
    assert collided >= 5
