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
At status 2, ``nodes`` is the budget and mode 1 reports the best fair
assignment among the assignments within it.

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
in mode 1, one sum gives their welfare.  The scan visits the surviving
prefixes in canonical order, skips each one that cannot lift the welfare
above the best so far (a scalar test, as the best grows within a block),
and tests all of a prefix's suffix assignments at once:
``slack + prefix_slack >= delta`` on every arc.  Skipped assignments still
count as nodes.  When ``k**m <= SUFFIX_ROWS`` there is one block of one
prefix.  Memory is ``O((A + n) * (2 * SUFFIX_ROWS + m))`` for ``A`` arcs: no
table spans more than ``SUFFIX_ROWS`` prefixes, whatever the budget, and
the work before the first node grows only with the input.

The suffix table must stay C-contiguous, one row per quantity, so that a
test of one quantity reads contiguous memory: in another memory order a
welfare scan at n=3, m=7 ran 3.4 times slower.  A broadcast does not
promise C order, so the build ends with ``np.ascontiguousarray``.

The same tables and walk serve the Pareto goal: ``pareto_frontier`` builds
the undominated profiles, ``first_fair_on_frontier`` finds the Pareto
brute-force witness (the block test is the arcs' reach, as above) and
``first_dominating`` decides Pareto efficiency (the block test is whether a
prefix plus the most each agent can still gain reaches the profile).
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend, which ``perfbench/run.py`` prints."""
    return "numpy"


# The scan's suffix holds at most this many assignments, and each
# block at most this many prefixes.
SUFFIX_ROWS = 1 << 13


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
    one quantity reads contiguous memory).
    """

    def __init__(self, utilities, arcs, cands):
        util = np.asarray(utilities, dtype=np.int64)
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
        owner = np.eye(n + 1, n, dtype=np.int64)[cands]
        self.S = np.concatenate((owner[:, arc_a] - owner[:, arc_b], owner), axis=1)
        # gains[r - outer][q, c]: V[r][q] * S[c][q], for the middle and suffix
        self.gains = np.ascontiguousarray(self.V[self.outer:, :, None] * self.S.T)
        self.zero = np.zeros((self.V.shape[1], 1), dtype=np.int64)
        # C order, see the module docstring
        self.table = np.ascontiguousarray(
            _sums(self.gains[self.prefix - self.outer:], self.zero))

    def blocks(self, limit, floor):
        """Yield ``(start, block, alive)`` per block of prefixes in
        canonical order while ``start``, the index of the block's first
        assignment, is below ``limit``.  Column ``i`` of ``block`` sums
        ``V[r] * S[c]`` over the ``i``-th prefix of the block, whose first
        assignment is ``start + i * size`` (``size`` the suffix's
        assignments), for the prefixes that start below ``limit``.
        ``alive[i]`` tells whether the prefix's leading sums reach
        ``floor``: ``block[:len(floor), i] >= floor``.

        A block holds the prefixes of one outer assignment: their sums are
        the middle table, built by the suffix table's broadcast and shifted
        when an outer digit moves, and ``floor`` is tested on the whole
        block in one comparison."""
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
    wel = profile.sum(axis=0) if mode == 1 else None
    top = int(wel.max()) if mode == 1 else 0
    best, best_wel = None, -1
    # alive: some suffix can make the prefix fair
    for start, block, alive in split.blocks(limit, delta - slack.max(axis=1)):
        if mode == 1:
            # when maximising, skip a prefix that cannot beat the best so
            # far: at the block's start here, and as the best grows below
            bases = block[A:].sum(axis=0)
            alive &= bases + top > best_wel
        for i in alive.nonzero()[0].tolist():
            first = start + i * size
            rows = min(size, limit - first)
            if mode == 1:
                base = int(bases[i])
                if base + top <= best_wel:
                    continue
            fair = (slack[:, :rows] >= (delta - block[:A, i])[:, None]).all(axis=0)
            if mode == 0:
                j = int(fair.argmax())
                if fair[j]:
                    welfare = int((block[A:, i] + profile[:, j]).sum())
                    return 0, split.assignment(first + j), welfare, first + j + 1
            else:
                j = int(np.where(fair, wel[:rows], -1).argmax())
                if fair[j] and base + int(wel[j]) > best_wel:
                    best_wel = base + int(wel[j])
                    best = split.assignment(first + j)
    if best is None:
        best = np.full(split.m, -1, dtype=np.int64)
    if split.total > limit:
        return 2, best, best_wel, max(limit, 0)
    return (0 if best_wel >= 0 else 1), best, best_wel, split.total


# Pareto pruning compares at most this many (candidate, rival) pairs at once.
PRUNE_PAIRS = 1 << 22


def _row_keys(rows):
    """One scalar per row, equal exactly when the rows are equal."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=np.int8)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _maximal(points):
    """The distinct rows of ``points`` that no other row dominates."""
    _, first = np.unique(_row_keys(points), return_index=True)
    cols = np.ascontiguousarray(points[np.sort(first)].T)
    n, size = cols.shape
    keep = np.ones(size, dtype=bool)
    block = max(1, PRUNE_PAIRS // size)
    for lo in range(0, size, block):
        part = cols[:, lo:lo + block]
        # rivals at least as good as each point of the block, itself included
        covers = np.ones((part.shape[1], size), dtype=bool)
        for i in range(n):
            covers &= cols[i] >= part[i][:, None]
        keep[lo:lo + block] = covers.sum(axis=1) == 1
    return cols[:, keep].T


def pareto_frontier(utilities):
    """Utility profiles of partial allocations that no other partial
    allocation dominates, one row each (Nemhauser-Ullmann): resources are
    added one at a time and dominated partial profiles dropped, which is
    exact because an extension of a dominated profile is dominated by the
    same extension of its dominator.  Leaving a resource that someone
    values unassigned is dominated by giving it to that agent."""
    util = np.asarray(utilities, dtype=np.int64)
    n = util.shape[0]
    front = np.zeros((1, n), dtype=np.int64)
    for col in util.T:
        gains = np.diag(col)[col > 0]
        if len(gains):
            front = _maximal((front[:, None, :] + gains).reshape(-1, n))
    return front


def _partial_split(utilities, arcs):
    """``_Split`` of the partial allocations: the candidates are every agent,
    then unassigned."""
    return _Split(utilities, arcs, np.append(np.arange(len(utilities)), -1))


def first_fair_on_frontier(utilities, arcs, delta, frontier):
    """First fair partial allocation in canonical order (agents before
    unassigned) whose utility profile is a row of ``frontier``, as an owner
    per resource, or ``None``."""
    split = _partial_split(utilities, arcs)
    A, size = split.arcs, split.table.shape[1]
    slack, profile = split.table[:A], split.table[A:]
    keys = _row_keys(frontier)
    for start, block, alive in split.blocks(split.total, delta - slack.max(axis=1)):
        for i in alive.nonzero()[0].tolist():
            fair = np.flatnonzero((slack >= (delta - block[:A, i])[:, None]).all(axis=0))
            on = np.isin(_row_keys(profile[:, fair].T + block[A:, i]), keys)
            if on.any():
                return split.assignment(start + i * size + int(fair[on.argmax()]))
    return None


def first_dominating(utilities, profile, limit):
    """1-based position in canonical order (agents before unassigned) of the
    first partial allocation whose utility profile dominates ``profile``,
    looking at the first ``limit`` allocations only; ``None`` if there is
    none among them."""
    split = _partial_split(utilities, ())
    table, size = split.table, split.table.shape[1]
    profile = np.asarray(profile, dtype=np.int64)
    for start, block, alive in split.blocks(limit, profile - table.max(axis=1)):
        for i in alive.nonzero()[0].tolist():
            first = start + i * size
            margin = table[:, :min(size, limit - first)] + (block[:, i] - profile)[:, None]
            hit = (margin >= 0).all(axis=0) & (margin > 0).any(axis=0)
            j = int(hit.argmax())
            if hit[j]:
                return first + j + 1
    return None

