import random
import time
import tracemalloc

import numpy as np
import pytest

from gefalloc import _kernels
from gefalloc.model import PreferenceKind
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
