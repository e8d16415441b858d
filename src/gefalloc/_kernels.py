"""Hot enumeration kernels behind the brute-force solvers.

``search`` enumerates assignments by one numpy table scan (below).
``tests/oracle.py`` keeps ``counter_search``, a plain mixed-radix counter
with incremental bundle values under the same contract, as the reference
the scan is checked against.

Search contract
---------------
``search(utilities, arcs, delta, candidates, mode, limit)`` enumerates every
assignment of each resource to one entry of ``candidates`` (entry ``-1``
means "leave unassigned"), in lexicographic order with resource 0 varying
slowest and candidates tried in array order.  ``delta`` is 0 for the weak
fairness notion, 1 for the strict one.

mode 0  stop at the first fair assignment.
mode 1  scan everything, keep the maximum-welfare fair assignment
        (ties resolved to the lexicographically first).

Returns ``(status, assignment, welfare, nodes)`` with status 0 = found,
1 = exhausted without a fair assignment, 2 = node budget exceeded.  The
assignment array holds the owning agent per resource, ``-1`` if unassigned.
At status 2, ``nodes`` is ``max(limit, 0)`` and mode 1 reports the best
fair assignment among the assignments within it.

This module is the one place that counts and budgets brute-force scans:
the Pareto scans count the (n+1)^m partial allocations of ``n`` agents and
``m`` resources and answer under the same contract, with ``max(limit, 0)``
nodes at status 2.  ``first_fair_efficient`` returns ``(status,
assignment, welfare, nodes)``, with status 2 at once when the (n+1)^m pass
``limit``.  ``first_dominating`` returns ``(status, nodes)``: 0 with the
1-based position of the first dominating allocation, 1 with (n+1)^m.

Table scan
----------
An arc's slack ``value(a,a) - value(a,b)``, the utility profile and the
welfare are sums over resources, so the scan splits the resources,
the digits of an assignment, in three (in the manner of Horowitz and
Sahni): a suffix of the ``s`` fastest, ``k**s`` at most ``SUFFIX_ROWS``
(8192) for ``k`` candidates; a middle of the next ``s``, or of all that are
left; and the outer digits before them.  It builds the suffix's slack and
profile table once by broadcasting, and the middle's table of prefix sums
by the same broadcast.  The prefixes of one outer assignment form a block
of at most ``SUFFIX_ROWS`` columns, and the walk takes the outer
assignments in canonical order, shifting the block's sums when an outer
digit moves.  Per block, one comparison finds the prefixes that some suffix
could make fair (``prefix_slack + max(slack) >= delta`` on every arc) and,
in mode 1, one sum those that can beat the best welfare so far.  The scan
visits the surviving prefixes in canonical order, drops again, whenever the
best welfare grows, the block's remaining prefixes that can no longer beat
it (one vectorized test), and tests all of a prefix's suffix assignments at
once: ``slack + prefix_slack >= delta`` on every arc.  Skipped assignments
still count as nodes.  When ``k**m <= SUFFIX_ROWS`` the suffix table holds
every assignment, and the scan is that one test on the empty prefix, with no
floor and no walk.  Memory is ``O((A + n) * (2 * SUFFIX_ROWS + m))`` for
``A`` arcs: no table spans more than ``SUFFIX_ROWS`` prefixes, whatever the
budget, and the work before the first node grows only with the input.

The suffix table must stay C-contiguous, one row per quantity, so that a
test of one quantity reads contiguous memory: in another memory order a
welfare scan at n=3, m=7 ran 3.4 times slower.  A broadcast does not
promise C order, so the build ends with ``np.ascontiguousarray``.

Every table, and the Pareto frontier, is held in the narrowest signed
integer type (int8, int16, int32 or int64) that holds ``±(2*s + 1)``, ``s``
the largest row sum of the utilities (and, in ``first_dominating``, of the
caller's profile).  Every value a scan forms fits: an arc slack or a profile
entry is a signed sum over one agent's row, an outer digit's shift is at
most twice a utility, and ``delta - x`` adds one.  Welfare is summed in
int64, and so are the row sums that pick the type.  The utilities are cast
to the table type from the type they arrive in (an ``Instance`` stores
them in the narrowest type that holds its largest value), with no int64
copy between.  On small utilities the comparisons then read an eighth of
the memory, and the verdicts, witnesses and node counts are those of int64.

The same tables and walk serve the Pareto goal.  ``first_fair_efficient``
finds the Pareto brute-force witness among the complete assignments.
Utilities are non-negative, so some complete allocation covers every
partial one: the frontier of partial allocations is the set of maximal
complete profiles, and a complete profile lies on it iff no complete
profile covers it with a larger total.  When one table holds every complete
assignment, the fair ones are thus checked, a few at a time in canonical
order, against the whole table, and no frontier is built; a checked one's
cover of largest total lies on the frontier (the presorting argument of
skyline queries), so it drops the later fair assignments it dominates.
Otherwise ``pareto_frontier`` builds the undominated profiles, pruning in
batches so that numpy's fixed cost is paid a few times per frontier rather
than once per resource, and the walk seeks a fair assignment on it (the
block test is the arcs' reach, as above).  ``first_dominating`` decides
Pareto efficiency (the block test is whether a prefix plus the most each
agent can still gain reaches the profile).  Frontier membership goes by a
linear key, ``k(p) = sum(p[i] * w[i])`` modulo 2**64 with fixed odd
multipliers ``w``: the frontier's keys are sorted once, the suffix table's
keys built once, a prefix adds one scalar, and one ``searchsorted`` tests
all of a prefix's fair suffixes.  A key hit is checked against the frontier
rows of that key, so a collision costs one check and never a wrong witness.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def backend() -> str:
    """Name of the kernel backend, which ``perfbench/run.py`` prints."""
    return "numpy"


# The scan's suffix holds at most this many assignments, and each
# block at most this many prefixes.
SUFFIX_ROWS = 1 << 13


def _table_type(util, cover=0):
    """The narrowest signed integer type that holds ``±(2*s + 1)``, ``s``
    the largest of ``cover`` and the row sums of ``util``."""
    s = max(int(util.sum(axis=1).max(initial=0)), cover)
    return np.min_scalar_type(-2 * s - 1)


def _sums(gains, table):
    """Prepend one digit per resource of ``gains`` to the columns of
    ``table``: column ``j`` of the result is the column of ``table`` its
    fastest digits name plus ``gains[r][:, c]`` for each resource ``r`` at
    candidate index ``c``, in canonical order."""
    width, k = table.shape[0], gains.shape[2]
    # the last resource first, so that every add runs along a whole row of
    # the table built so far
    for r in range(len(gains) - 1, -1, -1):
        table = (gains[r][:, :, None] + table[:, None, :]).reshape(width, k * table.shape[1])
    return table


class _Split:
    """The assignments of ``m`` resources to the ``k`` entries of ``cands``,
    split into ``outer`` slow digits, then middle digits, then a suffix of
    ``s`` fast ones, the largest ``s`` with ``k**s <= SUFFIX_ROWS``; the
    middle takes the next ``s`` digits, or all that are left.  ``prefix``
    counts the outer and middle digits.

    Every quantity the scans test is a sum over resources of
    ``V[r] * S[c]``, ``c`` the candidate index resource ``r`` takes: the
    first ``A`` entries are the arc slacks ``value(a,a) - value(a,b)`` and
    the last ``n`` the utility profile, whose sum is the welfare.  Column
    ``j`` of ``table`` holds these sums over the suffix for its ``j``-th
    assignment in canonical order (one row per quantity, so that a test of
    one quantity reads contiguous memory).  Every table is of
    ``_table_type(utilities, cover)``: ``cover`` is a further magnitude it
    must hold.
    """

    def __init__(self, utilities, arcs, cands, cover=0):
        util = np.asarray(utilities)
        util = util.astype(_table_type(util, cover), copy=False)
        arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
        arc_a, arc_b = arcs[:, 0], arcs[:, 1]
        cands = np.asarray(cands, dtype=np.int64)
        n, m = util.shape
        k = len(cands)
        self.m, self.k, self.arcs, self.cands = m, k, len(arcs), cands
        s = 0
        while s < m and k ** (s + 1) <= SUFFIX_ROWS:
            s += 1
        self.prefix = m - s
        self.outer = max(m - 2 * s, 0)
        self.total = k**m
        self.V = np.concatenate((util[arc_a].T, util.T), axis=1)
        # owner indicator per candidate; its zero last row stands for "unassigned"
        owner = np.eye(n + 1, n, dtype=util.dtype)[cands]
        self.S = np.concatenate((owner[:, arc_a] - owner[:, arc_b], owner), axis=1)
        # gains[r - outer][q, c]: V[r][q] * S[c][q], for the middle and suffix
        self.gains = np.ascontiguousarray(self.V[self.outer:, :, None] * self.S.T)
        self.zero = np.zeros((self.V.shape[1], 1), dtype=util.dtype)
        # C order, see the module docstring
        self.table = np.ascontiguousarray(
            _sums(self.gains[self.prefix - self.outer:], self.zero))

    def blocks(self, limit, floor):
        """Yield ``(start, block, alive)`` per block of prefixes in
        canonical order while ``start``, the index of the block's first
        assignment, is below ``limit``.  Column ``i`` of ``block`` sums
        ``V[r] * S[c]`` over the block's ``i``-th prefix, which starts at
        ``start + i * size`` (``size`` the suffix's assignments) below
        ``limit``; ``alive[i]`` tells whether its leading sums reach
        ``floor``.  A block holds the prefixes of one outer assignment: the
        middle table, built by the suffix table's broadcast and shifted
        when an outer digit moves."""
        o, k, V, S = self.outer, self.k, self.V, self.S
        size = self.table.shape[1]
        seed = self.zero
        for r in range(o):  # every outer digit at candidate 0
            seed = seed + (V[r] * S[0])[:, None]
        block = _sums(self.gains[:self.prefix - o], seed)
        floor, tested = floor[:, None], len(floor)
        digits = [0] * o
        start = 0
        while start < limit:
            # the prefixes that start below limit: ceil((limit - start) / size)
            part = block[:, :-((start - limit) // size)]
            yield start, part, (part[:tested] >= floor).all(axis=0)
            start += size * block.shape[1]
            i = o - 1
            while i >= 0:
                d = digits[i]
                digits[i] = d + 1 if d + 1 < k else 0
                block = block + (V[i] * (S[digits[i]] - S[d]))[:, None]
                if digits[i]:
                    break
                i -= 1
            if i < 0:
                return

    def scan(self, limit, floor, test, keep=None):
        """Run ``test(first, sums)`` on the prefixes that start below
        ``limit`` in canonical order (``first`` a prefix's first assignment,
        ``sums`` its column) and return its first answer other than ``None``
        and ``False``, or ``None``.  With one suffix table the empty prefix
        is the only one: no floor, no walk.  Otherwise the walk tests the
        alive prefixes of ``blocks(limit, floor())``, and ``keep(block)``,
        when given, returns a function that picks the ones worth a test,
        applied again to the rest whenever ``test`` returns ``False``."""
        if self.prefix == 0:
            answer = test(0, self.zero[:, 0]) if limit > 0 else None
            return None if answer is False else answer
        size = self.table.shape[1]
        for start, block, alive in self.blocks(limit, floor()):
            prune = (lambda rest: rest) if keep is None else keep(block)
            rest = prune(alive.nonzero()[0])
            while len(rest):
                i, rest = int(rest[0]), rest[1:]
                answer = test(start + i * size, block[:, i])
                if answer is False:
                    rest = prune(rest)
                elif answer is not None:
                    return answer
        return None

    def assignment(self, index):
        """Owner per resource of the assignment at 0-based position
        ``index`` in canonical order."""
        digits = []
        for _ in range(self.m):
            index, d = divmod(index, self.k)
            digits.append(d)
        return self.cands[np.array(digits[::-1], dtype=np.int64)]


def search(utilities, arcs, delta, candidates, mode, limit):
    """The table scan of the search contract; see the module docstring."""
    split = _Split(utilities, arcs, candidates)
    if split.total == 0:
        # no candidate owners but resources to place: nothing to enumerate,
        # and an empty suffix table has no slack maximum
        return 1, np.full(split.m, -1, dtype=np.int64), -1, 0
    A, size, limit = split.arcs, split.table.shape[1], int(limit)
    slack, profile = split.table[:A], split.table[A:]
    # mode 0 needs the welfare of the one assignment it returns
    wel = profile.sum(axis=0, dtype=np.int64) if mode == 1 else None
    best, best_wel = None, -1

    def test(first, sums):
        """Test all suffixes of a prefix: mode 0's answer if one is fair;
        mode 1 keeps the best and returns ``False`` when it grows."""
        nonlocal best, best_wel
        rows = min(size, limit - first)
        fair = (slack[:, :rows] >= (delta - sums[:A])[:, None]).all(axis=0)
        j = int(fair.argmax() if mode == 0 else np.where(fair, wel[:rows], -1).argmax())
        if not fair[j]:
            return None
        welfare = sum(sums[A:].tolist()) + sum(profile[:, j].tolist())
        if mode == 0:
            return 0, split.assignment(first + j), welfare, first + j + 1
        if welfare > best_wel:
            best_wel, best = welfare, split.assignment(first + j)
            return False
        return None

    def keep(block):
        # when maximising, the prefixes that can beat the best so far
        reach = block[A:].sum(axis=0, dtype=np.int64) + int(wel.max())
        return lambda rest: rest[reach[rest] > best_wel]

    # alive: some suffix can make the prefix fair
    answer = split.scan(limit, lambda: delta - slack.max(axis=1), test, keep if mode else None)
    if answer is not None:
        return answer
    if best is None:
        best = np.full(split.m, -1, dtype=np.int64)
    if split.total > limit:
        return 2, best, best_wel, max(limit, 0)
    return (0 if best_wel >= 0 else 1), best, best_wel, split.total


# Pareto pruning compares at most this many (candidate, rival) pairs at once.
PRUNE_PAIRS = 1 << 22
# The frontier grows unpruned until its next sum would exceed this many points.
FRONT_ROWS = 128
# The one-table Pareto witness test checks this many fair assignments at once.
WITNESS_ROWS = 8


def _maximal(points):
    """The distinct rows of ``points`` that no other row dominates, in order
    of first occurrence.  A rival at least as good on every agent is
    strictly better if its total is larger, and the same profile if its
    total is equal; so in a stable order by falling total a point stays
    exactly when no earlier point covers it."""
    order = np.argsort(-points.sum(axis=1, dtype=np.int64), kind="stable")
    cols = np.ascontiguousarray(points[order].T)
    n, size = cols.shape
    keep = np.empty(size, dtype=bool)
    block = max(1, PRUNE_PAIRS // size)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        part = cols[:, lo:hi]
        # the points up to the block's end at least as good as each point
        # of the block: the first of them is the point itself if it stays
        covers = np.ones((hi - lo, hi), dtype=bool)
        for i in range(n):
            covers &= cols[i, :hi] >= part[i][:, None]
        keep[lo:hi] = covers.argmax(axis=1) == np.arange(lo, hi)
    return points[np.sort(order[keep])]


def pareto_frontier(utilities):
    """Utility profiles of partial allocations that no other partial
    allocation dominates, one row each, in order of first occurrence
    (Nemhauser-Ullmann): resources are added one at a time, and dominated
    and repeated profiles dropped whenever the next sum would exceed
    ``FRONT_ROWS`` points, and at the end.  This is exact because an
    extension of a dominated (or repeated) profile is beaten (or repeated)
    by the same extension of its dominator (or first copy), which comes
    earlier.  Leaving a resource that someone values unassigned is
    dominated by giving it to that agent."""
    util = np.asarray(utilities)
    util = util.astype(_table_type(util), copy=False)
    n = util.shape[0]
    front = np.zeros((1, n), dtype=util.dtype)
    for col in util.T:
        gains = np.diag(col)[col > 0]
        if len(gains):
            if len(front) * len(gains) > FRONT_ROWS:
                front = _maximal(front)
            front = (front[:, None, :] + gains).reshape(-1, n)
    return _maximal(front)


@lru_cache(maxsize=None)
def _key_weights(n):
    """The membership key's fixed odd multipliers, one per agent, as a
    read-only column: splitmix64 of 1, ..., n."""
    w = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    w = (w ^ (w >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    w = (w ^ (w >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    w = ((w ^ (w >> np.uint64(31))) | np.uint64(1))[:, None]
    w.flags.writeable = False
    return w


def _keys(cols, w):
    """The membership key ``sum(p[i] * w[i])`` modulo 2**64 of each column
    ``p`` of ``cols``.  It is linear: the key of a sum is the sum of the
    keys."""
    return (cols.astype(np.uint64) * w).sum(axis=0, dtype=np.uint64)


def first_fair_efficient(utilities, arcs, delta, limit):
    """The first fair partial allocation in canonical order (agents before
    unassigned) that no partial allocation dominates, under the search
    contract (see the module docstring).  It scans the complete assignments
    only ("unassigned" alone when there is no agent): an unassigned valued
    resource leaves the profile dominated, and an unassigned worthless one
    can sit on agent 0 instead, with the same profile and slacks and earlier
    in canonical order.  When one table holds them, no frontier is built."""
    n, m = np.shape(utilities)
    nodes = (n + 1) ** m
    unassigned = np.full(m, -1, dtype=np.int64)
    if nodes > limit:
        return 2, unassigned, -1, max(limit, 0)
    split = _Split(utilities, arcs, range(n) if n else [-1])
    A = split.arcs
    slack, profile = split.table[:A], split.table[A:]
    if split.prefix == 0:
        total = profile.sum(axis=0, dtype=np.int64)
        rest = np.flatnonzero((slack >= delta).all(axis=0))
        while len(rest):
            batch, rest = rest[:WITNESS_ROWS], rest[WITNESS_ROWS:]
            covers = np.ones((len(batch), len(total)), dtype=bool)
            for row in profile:
                covers &= row >= row[batch][:, None]
            # each one's cover of largest total: of its own total iff undominated
            best = np.where(covers, total, -1).argmax(axis=1)
            free = np.flatnonzero(total[best] <= total[batch])
            if len(free):
                j = int(batch[free[0]])
                return 0, split.assignment(j), int(total[j]), nodes
            # the learned frontier points: drop the later fair ones they dominate
            beaten = total[best] > total[rest][:, None]
            for row in profile:
                beaten &= row[best] >= row[rest][:, None]
            rest = rest[~beaten.any(axis=1)]
        return 1, unassigned, -1, nodes
    frontier = pareto_frontier(utilities)
    w = _key_weights(len(profile))
    front_keys = _keys(frontier.T, w)
    ordered = np.sort(front_keys)
    suffix_keys = _keys(profile, w)

    def test(first, sums):
        fair = np.flatnonzero((slack >= (delta - sums[:A])[:, None]).all(axis=0))
        keys = suffix_keys[fair] + _keys(sums[A:, None], w)
        found = np.take(ordered, np.searchsorted(ordered, keys), mode="clip") == keys
        for j in np.flatnonzero(found).tolist():
            # a key can collide: check the profile against its key's rows
            full = profile[:, fair[j]] + sums[A:]
            if (frontier[front_keys == keys[j]] == full).all(axis=1).any():
                welfare = int(full.sum(dtype=np.int64))
                return 0, split.assignment(first + int(fair[j])), welfare, nodes
        return None

    return split.scan(split.total, lambda: delta - slack.max(axis=1), test) or (
        1, unassigned, -1, nodes)


def first_dominating(utilities, profile, limit):
    """Whether a partial allocation's utility profile dominates ``profile``,
    among the first ``limit`` in canonical order (agents before unassigned),
    as ``(status, nodes)``: see the module docstring."""
    profile = np.asarray(profile, dtype=np.int64)
    split = _Split(utilities, (), np.append(np.arange(len(utilities)), -1),
                   int(np.abs(profile).max(initial=0)))
    table, size = split.table, split.table.shape[1]
    profile = profile.astype(table.dtype)

    def test(first, sums):
        margin = table[:, :min(size, limit - first)] + (sums - profile)[:, None]
        hit = (margin >= 0).all(axis=0) & (margin > 0).any(axis=0)
        j = int(hit.argmax())
        return (0, first + j + 1) if hit[j] else None

    answer = split.scan(limit, lambda: profile - table.max(axis=1), test)
    if answer is None:
        answer = (2, max(limit, 0)) if split.total > limit else (1, split.total)
    return answer
