"""Independent reference implementations used as test oracles.

Everything here is written against the problem statement directly, with
plain double loops and itertools enumeration, deliberately sharing no
code with the package internals; only ``Allocation`` wraps an answer.
"""

import itertools

import numpy as np

from gefalloc import Allocation


def bundles_of(n, assignment):
    out = [[] for _ in range(n)]
    for r, a in assignment.items():
        out[a].append(r)
    return out


def fair(utilities, arcs, assignment, strict):
    """Direct reading of the fairness condition: every watcher values its
    own bundle at least (or strictly more than) the watched bundle."""
    n = len(utilities)
    bundles = bundles_of(n, assignment)
    for a, b in arcs:
        mine = sum(utilities[a][r] for r in bundles[a])
        theirs = sum(utilities[a][r] for r in bundles[b])
        if strict:
            if not mine > theirs:
                return False
        elif not mine >= theirs:
            return False
    return True


def all_complete_assignments(n, m):
    for owners in itertools.product(range(n), repeat=m):
        yield dict(enumerate(owners))


def all_partial_assignments(n, m):
    for owners in itertools.product(range(n + 1), repeat=m):
        yield {r: a for r, a in enumerate(owners) if a < n}


def enumerate_partial_allocations(inst):
    """All (n+1)^m partial allocations of ``inst`` as Allocations, in the
    package's canonical order: resource 0 varies slowest, agents before
    'unassigned'."""
    for asg in all_partial_assignments(inst.n, inst.m):
        yield Allocation(asg)


def exists_fair_complete(utilities, arcs, strict):
    n, m = len(utilities), len(utilities[0]) if utilities else 0
    if n == 0:
        return m == 0
    return any(
        fair(utilities, arcs, asg, strict)
        for asg in all_complete_assignments(n, m)
    )


def welfare(utilities, assignment):
    return sum(utilities[a][r] for r, a in assignment.items())


def profile(utilities, assignment):
    n = len(utilities)
    bundles = bundles_of(n, assignment)
    return tuple(sum(utilities[a][r] for r in b) for a, b in enumerate(bundles))


def max_fair_welfare(utilities, arcs, strict):
    """Best welfare over all fair partial allocations, or None."""
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    best = None
    for asg in all_partial_assignments(n, m):
        if fair(utilities, arcs, asg, strict):
            w = welfare(utilities, asg)
            if best is None or w > best:
                best = w
    return best


def max_welfare_bound(inst):
    """Sum of column maxima of an Instance: no allocation can beat it."""
    return sum(max(col) for col in zip(*inst.utilities.tolist()))


def exists_fair_pareto(utilities, arcs, strict):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    candidates = [
        asg
        for asg in all_partial_assignments(n, m)
        if fair(utilities, arcs, asg, strict)
    ]
    everything = list(all_partial_assignments(n, m))
    for asg in candidates:
        p = profile(utilities, asg)
        dominated = any(
            all(x >= y for x, y in zip(profile(utilities, other), p))
            and any(x > y for x, y in zip(profile(utilities, other), p))
            for other in everything
        )
        if not dominated:
            return True
    return False


def instance_args(inst):
    """Pull plain-python utilities and arcs out of an Instance."""
    util = [[int(v) for v in row] for row in inst.utilities]
    return util, inst.arc_pairs()


def dominated(utilities, assignment, m):
    """Whether some partial assignment of the m resources gives everyone at
    least as much as ``assignment`` and someone more."""
    n = len(utilities)
    p = profile(utilities, assignment)
    for other in all_partial_assignments(n, m):
        q = profile(utilities, other)
        if all(x >= y for x, y in zip(q, p)) and any(x > y for x, y in zip(q, p)):
            return True
    return False


def pareto_profiles(utilities, m):
    """The distinct profiles of the partial assignments of the m resources
    that no other profile dominates, in order of first occurrence in
    canonical order (resource 0 slowest, agents before unassigned)."""
    n = len(utilities)
    seen = dict.fromkeys(profile(utilities, asg) for asg in all_partial_assignments(n, m))
    points = np.array(list(seen), dtype=np.int64).reshape(len(seen), n)
    return [p for p, row in zip(seen, points)
            if not ((points >= row).all(axis=1) & (points > row).any(axis=1)).any()]


def first_dominating(utilities, target, m, limit):
    """1-based position in canonical order of the first of the first
    ``limit`` partial assignments whose profile dominates ``target``, or
    None."""
    for pos, asg in enumerate(all_partial_assignments(len(utilities), m), 1):
        if pos > limit:
            return None
        p = profile(utilities, asg)
        if all(x >= y for x, y in zip(p, target)) and any(x > y for x, y in zip(p, target)):
            return pos
    return None


def first_fair_pareto(utilities, arcs, strict, m):
    """First fair, undominated partial assignment in canonical order (resource
    0 slowest, agents before unassigned), or None."""
    for asg in all_partial_assignments(len(utilities), m):
        if fair(utilities, arcs, asg, strict) and not dominated(utilities, asg, m):
            return asg
    return None


def efficient_dag_greedy(utilities, arcs, m):
    """The Pareto-efficient greedy for the weak notion on an acyclic graph,
    rescanning every remaining resource on each pick: while some agent
    values a remaining resource, the agents that do and that no other such
    agent watches (the fringe) take the first remaining resource one of them
    values, and the fringe agent valuing it most (lowest index on ties)
    gets it.  Returns the assignment."""
    n = len(utilities)
    remaining = list(range(m))
    assignment = {}
    while remaining:
        active = [a for a in range(n) if any(utilities[a][r] > 0 for r in remaining)]
        if not active:
            break
        active_set = set(active)
        watched = {b for a, b in arcs if a in active_set and b in active_set}
        fringe = [a for a in active if a not in watched]
        r = next(r for r in remaining if any(utilities[a][r] > 0 for a in fringe))
        remaining.remove(r)
        assignment[r] = max(fringe, key=lambda a: (utilities[a][r], -a))
    return assignment


def counter_search(utilities, arcs, delta, candidates, mode, limit):
    """Reference for ``gefalloc._kernels.search`` under the same contract
    (see that module's docstring): a mixed-radix counter over the
    assignments in canonical order that keeps every agent's value of every
    bundle up to date as a digit moves.  Needs a candidate when there are
    resources.  Welfare and nodes come back as numpy integers."""
    util = np.ascontiguousarray(utilities, dtype=np.int64)
    arcs = np.asarray(arcs, dtype=np.int64).reshape(-1, 2)
    arc_a, arc_b = arcs[:, 0], arcs[:, 1]
    cands = np.ascontiguousarray(candidates, dtype=np.int64)
    delta, mode, limit = np.int64(delta), np.int64(mode), np.int64(limit)
    n = util.shape[0]
    m = util.shape[1]
    k = cands.shape[0]
    digits = np.zeros(m, np.int64)
    # values[x, y] = value of y's current bundle under x's utility row
    values = np.zeros((n, n), np.int64)
    wel = np.int64(0)
    first = cands[0] if k > 0 else np.int64(-1)
    if first >= 0:
        for r in range(m):
            wel += util[first, r]
            for x in range(n):
                values[x, first] += util[x, r]
    best = np.full(m, -1, np.int64)
    best_wel = np.int64(-1)
    nodes = np.int64(0)
    while True:
        nodes += 1
        if nodes > limit:
            return 2, best, best_wel, nodes - 1
        fair = True
        for t in range(arc_a.shape[0]):
            a = arc_a[t]
            b = arc_b[t]
            if values[a, a] < values[a, b] + delta:
                fair = False
                break
        if fair:
            if mode == 0:
                for r in range(m):
                    best[r] = cands[digits[r]]
                return 0, best, wel, nodes
            if wel > best_wel:
                best_wel = wel
                for r in range(m):
                    best[r] = cands[digits[r]]
        # mixed-radix increment, rightmost digit fastest
        i = m - 1
        while i >= 0:
            old = cands[digits[i]]
            if digits[i] + 1 < k:
                digits[i] += 1
            else:
                digits[i] = 0
            new = cands[digits[i]]
            if old >= 0:
                wel -= util[old, i]
                for x in range(n):
                    values[x, old] -= util[x, i]
            if new >= 0:
                wel += util[new, i]
                for x in range(n):
                    values[x, new] += util[x, i]
            if digits[i] != 0:
                break
            i -= 1
        if i < 0:
            break
    if mode == 1 and best_wel >= 0:
        return 0, best, best_wel, nodes
    return 1, best, best_wel, nodes


def deals(copies, agents, n):
    """Every way to deal ``copies`` copies of one resource type among
    ``agents``, as a count vector over the ``n`` agents: lexicographic in
    the counts of ``agents`` in order, counts rising, the last of them
    taking the rest."""
    if not agents:
        return [] if copies else [[0] * n]
    *free, last = agents
    out = []
    for counts in itertools.product(range(copies + 1), repeat=len(free)):
        if sum(counts) <= copies:
            x = [0] * n
            for a, c in zip(free, counts):
                x[a] = c
            x[last] = copies - sum(counts)
            out.append(x)
    return out


def type_search(utilities, arcs, strict, maximisers_only=False):
    """Reference for ``gefalloc.exact.solve_ilp``: resources with equal
    utility columns form a type, and types go in order of falling
    multiplicity (ties in order of first occurrence).  Count vectors are
    enumerated with ``itertools.product`` over each type's ``deals``, to
    every agent, or with ``maximisers_only`` to the agents valuing the type
    most; the first whose dealt allocation is fair is returned, each type's
    resources going to the agents in index order as counted, or None."""
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    members = {}
    for r in range(m):
        members.setdefault(tuple(row[r] for row in utilities), []).append(r)
    order = sorted(members, key=lambda col: -len(members[col]))
    per_type = []
    for col in order:
        top = max(col, default=0)
        agents = [i for i in range(n) if not maximisers_only or col[i] == top]
        per_type.append(deals(len(members[col]), agents, n))
    for counts in itertools.product(*per_type):
        assignment = {}
        for col, x in zip(order, counts):
            pool = iter(members[col])
            for i in range(n):
                for _ in range(x[i]):
                    assignment[next(pool)] = i
        if fair(utilities, arcs, assignment, strict):
            return assignment
    return None
