"""Hot enumeration kernels behind the exhaustive solvers.

``search`` enumerates assignments by one numpy table scan (below);
``_fair`` runs the scan over any ``_Split``, such as the type scan's digits
with candidates of their own.
``tests/oracle.py`` keeps the references: ``counter_search``, a plain
mixed-radix counter under the same contract, and ``type_search``.

Search contract
---------------
``search(utilities, arcs, delta, candidates, mode, budget)`` enumerates
every assignment of each resource to one entry of ``candidates`` (entry
``-1`` means "leave unassigned"), in lexicographic order with resource 0
varying slowest and candidates tried in array order.  ``delta`` is 0 for
the weak fairness notion, 1 for the strict one.

mode 0  stop at the first fair assignment.
mode 1  scan everything, keep the maximum-welfare fair assignment
        (ties resolved to the lexicographically first).

Returns ``(status, assignment, welfare, nodes)`` with status 0 = found,
1 = exhausted without a fair assignment, 2 = node budget exceeded.  The
assignment array holds the owning agent per resource, ``-1`` if unassigned.
Every scan counts one node unit, work: the prefixes screened plus the
assignments tested (below), so nodes depend on ``SUFFIX_ROWS`` and are at
most ``work_bound``.  ``budget`` caps the work: a scan stops before a block
or test that would take it past ``budget`` and answers status 2 with
``max(budget, 0)`` nodes (mode 1 with the best fair assignment it tested);
a scan not stopped does the same work at every budget.  The one other
refusal is Pareto brute force's gate, ``pareto_bound``.

Table scan
----------
The arc slacks ``value(a,a) - value(a,b)``, the utility profile and the
welfare are sums over the digits of an assignment, so the scan splits the
digits in three (as Horowitz and Sahni do): a suffix of the fastest digits
whose candidate counts multiply to at most ``SUFFIX_ROWS``, a middle of the
next ones that do, and the outer digits.  It builds the suffix's table and
the middle's prefix sums once by broadcasting; the prefixes of one outer
assignment form a block, shifted when an outer digit moves.  One comparison
per block screens the prefixes some suffix could make fair (``prefix_slack
+ max(slack) >= delta`` on every arc), one unit of work each, and in mode 1
one sum keeps those that can beat the best welfare.  Each surviving prefix
tests all its suffix assignments in one comparison, a unit each.  When the
suffix holds every assignment the scan is that one test.  Memory is
``O((A + n) * (2 * SUFFIX_ROWS + m))`` for ``A`` arcs and ``m`` digits: no
table spans more than ``SUFFIX_ROWS`` columns, whatever the budget, and the
work before the first unit grows only with the input.

The suffix table must stay C-contiguous, one row per quantity, so that a
test of one quantity reads contiguous memory: in another memory order a
welfare scan at n=3, m=7 ran 3.4 times slower.  A broadcast does not
promise C order, so the build ends with ``np.ascontiguousarray``.

A ``_Split`` knows its digits by two functions, their gain tables and
one candidate's gain column, so that only the middle and the suffix are
tabulated.  ``_Split.of_resources`` has a digit per resource.  Digits of
their own (mixed radix) carry ``exact.solve_type_ilp``: a digit per
resource type and a candidate per deal of its copies, adding ``u_a(t) *
(x[a] - x[b])`` to arc (a, b) and ``u_i(t) * x[i]`` to agent i's profile.
A type with more than ``SUFFIX_ROWS`` deals is dealt over several digits;
the sums are linear in the counts, so deals that give out more copies than
there are fail one more tested row per such type, copies - dealt >= 0.

Every table, and the Pareto frontier, is held in the narrowest signed
integer type (int8, int16, int32 or int64) that holds ``±(2*s + 1)``
(``sum_type``), ``s`` the largest row sum of the utilities (and, in
``first_dominating``, of the caller's profile), or for digits of their own
a bound on every sum of gains.  Every value a scan forms fits: an arc slack
or a profile entry is a signed sum over one agent's row, an outer digit's
shift is at most twice a gain, and ``delta - x`` adds one.  Welfare is
summed in int64, and so are the row sums that pick the type.  The
utilities are cast to the table type from the type they arrive in (an
``Instance`` stores them in the narrowest type that holds its largest
value), with no int64 copy between.  On small utilities the comparisons
then read an eighth of the memory, and the verdicts, witnesses and node
counts are those of int64.

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
Pareto efficiency on the complete assignments (the block test is whether a
prefix plus the most each agent can still gain reaches the profile).  Frontier membership goes by a
linear key, ``k(p) = sum(p[i] * w[i])`` modulo 2**64 with fixed odd
multipliers ``w``: the frontier's keys are sorted once, the suffix table's
keys built once, a prefix adds one scalar, and one ``searchsorted`` tests
all of a prefix's fair suffixes.  A key hit is checked against the frontier
rows of that key, so a collision costs one check and never a wrong witness.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def backend() -> str:
    """Name of the kernel backend, which ``perfbench/run.py`` prints."""
    return "numpy"


# The scan's suffix holds at most this many assignments, and each
# block at most this many prefixes.
SUFFIX_ROWS = 1 << 13


def sum_type(s):
    """The narrowest signed integer type that holds ``±(2*s + 1)``, object
    (Python integers) past int64."""
    return np.min_scalar_type(-2 * s - 1)


def _table_type(util, cover=0):
    """``sum_type`` of the largest of ``cover`` and the row sums of
    ``util``."""
    return sum_type(max(int(util.sum(axis=1).max(initial=0)), cover))


def _sums(gains, table):
    """Prepend one digit per table of ``gains`` to the columns of ``table``:
    column ``j`` of the result is the column of ``table`` its fastest digits
    name plus ``gains[r][:, c]`` for each digit ``r`` at candidate index
    ``c``, in canonical order."""
    width = table.shape[0]
    # the last digit first, so that every add runs along a whole row of
    # the table built so far
    for r in range(len(gains) - 1, -1, -1):
        table = (gains[r][:, :, None] + table[:, None, :]).reshape(
            width, gains[r].shape[1] * table.shape[1])
    return table


def _layout(counts):
    """``(prefix, outer)`` for digits of ``counts`` candidates each: the
    suffix is the fastest digits whose counts multiply to at most
    ``SUFFIX_ROWS``, the middle the next ones that do, and ``outer`` the
    digits before the middle; ``prefix`` counts the outer and middle
    digits."""
    if math.prod(counts) <= SUFFIX_ROWS:   # one table, as for most small solves
        return 0, 0
    bounds, d = [], len(counts)
    for _ in range(2):
        size = 1
        while d and size * counts[d - 1] <= SUFFIX_ROWS:
            size *= counts[d - 1]
            d -= 1
        bounds.append(d)
    return tuple(bounds)


def work_bound(counts):
    """The most work a scan over digits of ``counts`` candidates each can
    count: every assignment tested and every prefix screened."""
    prefix, _ = _layout(counts)
    return math.prod(counts) + (math.prod(counts[:prefix]) if prefix else 0)


class _Split:
    """The assignments of ``len(counts)`` digits, digit ``r`` to one of
    ``counts[r]`` candidates, split into ``outer`` slow digits, middle
    digits and a suffix (``_layout``); ``prefix`` counts the outer and
    middle digits.  A candidate taken adds its column of gains to ``rows``
    sums.  ``tables(lo)`` gives the gain tables of digits ``lo`` onwards, a
    column per candidate, and ``column(r, c)`` the column of digit ``r``'s
    candidate ``c``: only the middle and the suffix are tabulated, and the
    walk asks an outer digit for the column it moves to.  Both give
    gains of ``dtype``, the type of every table; column ``j`` of ``table``
    holds the sums over the suffix's ``j``-th assignment."""

    def __init__(self, counts, tables, column, rows, dtype):
        self.counts, self.m, self.column = list(counts), len(counts), column
        self.prefix, self.outer = _layout(self.counts)
        self.total = math.prod(self.counts)
        self.zero = np.zeros((rows, 1), dtype=dtype)
        self.inner = tables(self.outer)
        # C order, see the module docstring
        self.table = np.ascontiguousarray(_sums(self.inner[self.prefix - self.outer:], self.zero))

    @classmethod
    def of_resources(cls, utilities, arcs, cands, cover=0):
        """A digit per resource with the entries of ``cands`` as candidates,
        of ``_table_type(utilities, cover)``: the sums are the ``arcs``
        slacks, then the profile."""
        util = np.asarray(utilities)
        util = util.astype(_table_type(util, cover), copy=False)
        arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
        arc_a, arc_b = arcs[:, 0], arcs[:, 1]
        cands = np.asarray(cands, dtype=np.int64)
        n, m = util.shape
        # resource r given to candidate c adds V[r] * S[:, c]
        V = np.concatenate((util[arc_a].T, util.T), axis=1)
        # owner indicator per candidate; its zero last row stands for "unassigned"
        owner = np.eye(n + 1, n, dtype=util.dtype)[cands]
        # C order, so that the gain tables are too
        S = np.ascontiguousarray(np.concatenate((owner[:, arc_a] - owner[:, arc_b], owner), axis=1).T)
        split = cls([len(cands)] * m, lambda lo: V[lo:, :, None] * S,
                    lambda r, c: V[r] * S[:, c], V.shape[1], util.dtype)
        split.cands, split.arcs = cands, len(arcs)
        return split

    def blocks(self):
        """Yield ``(start, block)`` per block, the prefixes of one outer
        assignment, in canonical order, ``start`` its first assignment;
        column ``i`` holds the sums of the prefix that starts at ``start + i
        * size``."""
        o, counts = self.outer, self.counts
        size = self.table.shape[1]
        # each outer digit's column at candidate 0, and its current one
        firsts = [self.column(r, 0) for r in range(o)]
        cols = list(firsts)
        seed = self.zero
        for c in cols:
            seed = seed + c[:, None]
        block = _sums(self.inner[:self.prefix - o], seed)
        digits, start = [0] * o, 0
        while True:
            yield start, block
            start += size * block.shape[1]
            i = o - 1
            while i >= 0:
                d = digits[i]
                digits[i] = d + 1 if d + 1 < counts[i] else 0
                new = self.column(i, digits[i]) if digits[i] else firsts[i]
                block = block + (new - cols[i])[:, None]
                cols[i] = new
                if digits[i]:
                    break
                i -= 1
            if i < 0:
                return

    def scan(self, floor, test, keep=None, budget=math.inf):
        """``(answer, work)``: the first answer other than ``None`` and
        ``False`` of ``test(first, sums)`` on the prefixes in canonical
        order, ``first`` a prefix's first assignment and ``sums`` its
        column, and the columns of the blocks screened and tests run,
        stopping before a block or test that would take the work past
        ``budget`` (the work returned is then above it).  A block keeps the
        prefixes whose sums reach ``floor()`` and, with ``keep(block)``,
        those its pick keeps, again whenever ``test`` returns ``False``.
        One table is one test: no walk."""
        size = self.table.shape[1]
        if self.prefix == 0:
            answer = test(0, self.zero[:, 0]) if size <= budget else None
            return (None if answer is False else answer), size
        work, floor = 0, floor()[:, None]
        for start, block in self.blocks():
            work += block.shape[1]
            if work > budget:
                return None, work
            prune = (lambda rest: rest) if keep is None else keep(block)
            rest = prune((block[:len(floor)] >= floor).all(axis=0).nonzero()[0])
            while len(rest):
                i, rest = int(rest[0]), rest[1:]
                work += size
                if work > budget:
                    return None, work
                answer = test(start + i * size, block[:, i])
                if answer is False:
                    rest = prune(rest)
                elif answer is not None:
                    return answer, work
        return None, work

    def digits(self, index):
        """Candidate index per digit of the assignment at ``index``."""
        digits = []
        for count in reversed(self.counts):
            index, d = divmod(index, count)
            digits.append(d)
        return digits[::-1]

    def assignment(self, index):
        """Owner per resource of the assignment at ``index``."""
        return self.cands[np.array(self.digits(index), dtype=np.int64)]


def _fair(split, T, need, mode, budget):
    """The search contract over ``split``, fair when each of its first
    ``T`` quantities reaches ``need`` (one value or one each), the rest the
    profile: ``(status, index, welfare, nodes)``, ``index`` the answer's
    index in canonical order or ``None``."""
    slack, profile = split.table[:T], split.table[T:]
    # mode 0 needs the welfare of the one assignment it returns
    wel = profile.sum(axis=0, dtype=np.int64) if mode == 1 else None
    best, best_wel = None, -1

    def test(first, sums):
        """Test all suffixes of a prefix: mode 0's answer if one is fair;
        mode 1 keeps the best and returns ``False`` when it grows."""
        nonlocal best, best_wel
        fair = (slack >= (need - sums[:T])[:, None]).all(axis=0)
        j = int(fair.argmax() if mode == 0 else np.where(fair, wel, -1).argmax())
        if not fair[j]:
            return None
        welfare = sum(sums[T:].tolist()) + sum(profile[:, j].tolist())
        if mode == 0:
            return first + j, welfare
        if welfare > best_wel:
            best_wel, best = welfare, first + j
            return False
        return None

    def keep(block):
        # when maximising, the prefixes that can beat the best so far
        reach = block[T:].sum(axis=0, dtype=np.int64) + int(wel.max())
        return lambda rest: rest[reach[rest] > best_wel]

    answer, work = split.scan(lambda: need - slack.max(axis=1), test,
                              keep if mode else None, budget)
    if answer is not None:
        return (0, *answer, work)
    if work > budget:
        return 2, best, best_wel, max(budget, 0)
    return (1 if best is None else 0), best, best_wel, work


def search(utilities, arcs, delta, candidates, mode, budget):
    """The table scan of the search contract; see the module docstring."""
    split = _Split.of_resources(utilities, arcs, candidates)
    # no candidate owners but resources to place: nothing to enumerate,
    # and an empty suffix table has no slack maximum
    status, index, welfare, nodes = (_fair(split, split.arcs, delta, mode, budget)
                                     if split.total else (1, None, -1, 0))
    owners = np.full(split.m, -1, dtype=np.int64) if index is None else split.assignment(index)
    return status, owners, welfare, nodes


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


def pareto_bound(n, m):
    """Pareto brute force's node bound and gate on ``n`` agents and ``m``
    resources: the (n+1)^m partial allocations, or its scan's work bound
    where larger (past ``SUFFIX_ROWS`` agents).  It refuses at once above
    the budget because ``pareto_frontier`` and its quadratic ``_maximal``
    run before the scan and are not budgeted."""
    return max((n + 1) ** m, work_bound([n] * m))


def first_fair_efficient(utilities, arcs, delta, budget):
    """The first fair partial allocation in canonical order (agents before
    unassigned) that no partial allocation dominates, under the search
    contract, or status 2 at once when ``pareto_bound`` passes ``budget``.
    It scans the complete assignments only ("unassigned" alone when there
    is no agent): an unassigned valued resource leaves the profile
    dominated, and an unassigned worthless one can sit on agent 0 instead,
    with the same profile and slacks and earlier in canonical order."""
    n, m = np.shape(utilities)
    unassigned = np.full(m, -1, dtype=np.int64)
    if pareto_bound(n, m) > budget:
        return 2, unassigned, -1, max(budget, 0)
    split = _Split.of_resources(utilities, arcs, range(n) if n else [-1])
    A = split.arcs
    slack, profile = split.table[:A], split.table[A:]

    def cover(first, sums):
        """One table: its fair columns, a batch at a time, against all."""
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
                return split.assignment(j), int(total[j])
            # the learned frontier points: drop the later fair ones they dominate
            beaten = total[best] > total[rest][:, None]
            for row in profile:
                beaten &= row[best] >= row[rest][:, None]
            rest = rest[~beaten.any(axis=1)]
        return None

    def member(first, sums):
        """A walk: the prefix's fair suffixes on the frontier, by key."""
        fair = np.flatnonzero((slack >= (delta - sums[:A])[:, None]).all(axis=0))
        keys = suffix_keys[fair] + _keys(sums[A:, None], w)
        found = np.take(ordered, np.searchsorted(ordered, keys), mode="clip") == keys
        for j in np.flatnonzero(found).tolist():
            # a key can collide: check the profile against its key's rows
            full = profile[:, fair[j]] + sums[A:]
            if (frontier[front_keys == keys[j]] == full).all(axis=1).any():
                return split.assignment(first + int(fair[j])), int(full.sum(dtype=np.int64))
        return None

    if split.prefix:
        frontier = pareto_frontier(utilities)
        w = _key_weights(len(profile))
        front_keys = _keys(frontier.T, w)
        ordered = np.sort(front_keys)
        suffix_keys = _keys(profile, w)
    answer, nodes = split.scan(lambda: delta - slack.max(axis=1), member if split.prefix else cover)
    return (1, unassigned, -1, nodes) if answer is None else (0, *answer, nodes)


def first_dominating(utilities, profile, budget):
    """Status 0 when some partial allocation's utility profile dominates
    ``profile``, 1 when none does, 2 when the scan's work would pass
    ``budget`` first.  Utilities are non-negative, so a dominating partial
    allocation extends to a dominating complete one: it scans those."""
    profile = np.asarray(profile, dtype=np.int64)
    n = len(utilities)
    split = _Split.of_resources(utilities, (), range(n) if n else [-1],
                                int(np.abs(profile).max(initial=0)))
    table = split.table
    profile = profile.astype(table.dtype)

    def test(first, sums):
        margin = table + (sums - profile)[:, None]
        return bool(((margin >= 0).all(axis=0) & (margin > 0).any(axis=0)).any()) or None

    answer, work = split.scan(lambda: profile - table.max(axis=1), test, budget=budget)
    return 0 if answer else 2 if work > budget else 1
