"""Print one line per solve of a seeded corpus; compare the output of two
versions of gefalloc to list every solve whose route or result changed.

    PYTHONPATH=src python tools/route_dump.py > dump.txt
    python tools/route_dump.py --compare OLD NEW

Per instance, one line of analysis facts: instance id, ``analysis``,
preference kind, u_diff, graph kind, sources, sinks, inner agents, the
number of stripped resources and the owners of the strict case split
(``none`` when it answers infeasible), so that every fact auto's estimates
read shows.  Then one line per solve: instance id, notion,
goal, requested algorithm, route, status, welfare, nodes, witness (owner per
resource).  Each instance runs under both notions and all goals, with auto
and every route whose row applies.  The ``scan``, ``wide-scan`` and
``pareto-walk`` families run only forced ``brute``, at sizes where the scan
spans many prefixes.
The ``wide`` and ``wide-scan`` families draw utilities up to each of
``WIDE`` in turn, so that the instances' stored utilities and the kernels'
tables take every integer type.
The ``cost-edge`` family puts brute force's bound on both sides of
``BUDGET``, so that auto both compares the searches by cost and falls back
to row order.

``--compare OLD NEW`` reads two dumps and counts the lines that differ,
grouped by requested algorithm, route change (``old => new``, or the one
route when it did not change) and changed fields among ``FIELDS``; a line
found in one dump only counts as ``added`` or ``removed``.  It reads the
two files only and runs no solve; ``gefalloc`` is imported by the functions
that build or solve instances, so it runs without the package on the path.
"""

import argparse
import math
import random
from collections import Counter

BUDGET = 10**6

# Largest utilities of the wide families: their row sums put the kernels'
# tables in int8, int16, int32 and int64, on both sides of each switch.
WIDE = [3, 12, 40, 3000, 6000, 2**28, 2**30, 2**56]


def case5(count, seed, n_lo, n_hi):
    """Strict sgef-fpt case 5 (no source, k < m < n): k inner agents on a
    cycle, sinks that may share watchers, inner and sink indices interleaved."""
    from gefalloc import Instance
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        k = rng.randint(2, n - 2)
        m = rng.randint(k + 1, n - 1)
        agents = rng.sample(range(n), n)
        inner, sinks = agents[:k], sorted(agents[k:])
        arcs = {(inner[i], inner[(i + 1) % k]) for i in range(k)}
        shared = []
        for s in sinks:
            if shared and rng.random() < 0.5:
                watchers = rng.choice(shared)
            else:
                watchers = rng.sample(inner, rng.randint(1, k))
                shared.append(watchers)
            arcs.update((a, s) for a in watchers)
        util = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        yield Instance([f"a{i}" for i in range(n)], [f"r{j}" for j in range(m)],
                       util, sorted(arcs))


def identical_general(count, seed):
    """Identical preferences on general digraphs (n 5-8, m 0-5, arc density
    0.1-0.5), so struct-fpt's component prune fires and often empties the
    host."""
    from gefalloc import Instance
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(5, 8), rng.randint(0, 5)
        p = rng.uniform(0.1, 0.5)
        row = [rng.randint(0, 3) for _ in range(m)]
        arcs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < p]
        yield Instance([f"a{i}" for i in range(n)], [f"r{j}" for j in range(m)],
                       [row] * n, arcs)


def wide(count, seed):
    """General and identical preferences on every graph shape, n 1-4, m
    0-6, with utilities up to each of ``WIDE`` in turn."""
    from gefalloc import GraphKind, PreferenceKind, gen_random
    kinds = [PreferenceKind.GENERAL, PreferenceKind.IDENTICAL]
    shapes = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
    rng = random.Random(seed)
    for i in range(count):
        yield gen_random(rng.randint(1, 4), rng.randint(0, 6), kinds[i % 2], shapes[i % 3],
                         WIDE[i % len(WIDE)], rng.randrange(10**6))


def scan(count, seed, tops=(3,)):
    """General preferences on random digraphs, sized so that brute force
    scans more than 8192 assignments (k^m, k its candidate owners): welfare
    and complete at n 4-6, m 6-8, and Pareto at n 3-4, m 6-7, with
    utilities up to each of ``tops`` in turn.  Yields the instance and the
    goals to solve it for."""
    from gefalloc import EfficiencyGoal, PreferenceKind, gen_random
    rng = random.Random(seed)
    while count:
        pareto = count % 2 == 0
        n = rng.randint(3, 4) if pareto else rng.randint(4, 6)
        m = rng.randint(6, 7) if pareto else rng.randint(6, 8)
        # the complete goal scans n owners, the others n owners and "none"
        if (n if not pareto else n + 1) ** m <= 8192:
            continue
        count -= 1
        goals = ([EfficiencyGoal.PARETO] if pareto
                 else [EfficiencyGoal.COMPLETE, EfficiencyGoal.MAX_WELFARE])
        top = tops[count % len(tops)]
        yield gen_random(n, m, PreferenceKind.GENERAL, None, top, rng.randrange(10**6)), goals


def pareto_walk(count, seed):
    """General preferences on random digraphs at n=3, m=9 and n=4, m=7 in
    turn, so that the Pareto witness scan, which takes the n^m complete
    assignments, spans more than 8192 of them and walks blocks.  Yields
    the instance and the goals to solve it for, as ``scan`` does."""
    from gefalloc import EfficiencyGoal, PreferenceKind, gen_random
    rng = random.Random(seed)
    for i in range(count):
        n, m = ((3, 9), (4, 7))[i % 2]
        yield (gen_random(n, m, PreferenceKind.GENERAL, None, 3, rng.randrange(10**6)),
               [EfficiencyGoal.PARETO])


def cost_edge(count, seed):
    """General and 0/1 preferences on graphs with a cycle, n 3-6, with m the
    largest (even instances) or smallest (odd ones) that puts n^m, brute
    force's complete-goal bound, at most or above ``BUDGET``."""
    from gefalloc import GraphKind, PreferenceKind, analyze, gen_random
    kinds = [PreferenceKind.GENERAL, PreferenceKind.ZERO_ONE]
    shapes = [GraphKind.STRONGLY_CONNECTED, None]
    rng = random.Random(seed)
    i = 0
    while i < count:
        n = rng.randint(3, 6)
        m = int(math.log(BUDGET, n)) + i % 2
        kind = kinds[i // 2 % 2]
        inst = gen_random(n, m, kind, shapes[i // 4 % 2],
                          1 if kind is PreferenceKind.ZERO_ONE else 4, rng.randrange(10**6))
        if not analyze(inst).acyclic:
            i += 1
            yield inst


def corpus():
    from gefalloc import GraphKind, PreferenceKind, gen_random
    kinds, shapes = list(PreferenceKind), [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None]
    rng = random.Random(1)
    for i in range(400):
        yield f"rand-{i}", gen_random(rng.randint(1, 4), rng.randint(0, 5),
                                      kinds[i % len(kinds)], shapes[i % 3], 3, i)
    yield from ((f"case5-{i}", inst) for i, inst in enumerate(case5(300, 2, 4, 6)))
    yield from ((f"case5-big-{i}", inst) for i, inst in enumerate(case5(12, 3, 9, 10)))
    yield from ((f"ident-gen-{i}", inst) for i, inst in enumerate(identical_general(300, 4)))
    yield from ((f"wide-{i}", inst) for i, inst in enumerate(wide(160, 6)))
    yield from ((f"cost-edge-{i}", inst) for i, inst in enumerate(cost_edge(24, 8)))


def scan_corpus():
    """The families that run forced ``brute`` only: instance id, instance
    and the goals to solve it for."""
    for family, scans in (("scan", scan(200, 5)), ("wide-scan", scan(48, 7, WIDE)),
                          ("pareto-walk", pareto_walk(8, 9))):
        for i, (inst, goals) in enumerate(scans):
            yield f"{family}-{i}", inst, goals


def solve_line(name, inst, notion, goal, algo):
    from gefalloc import solve
    res = solve(inst, notion, goal, algo, BUDGET)
    asg = res.allocation.assignment if res.allocation else None
    witness = "-" if asg is None else ",".join(str(asg.get(r, "-")) for r in range(inst.m))
    print(name, notion.value, goal.value, algo, res.route, res.status.value,
          res.welfare, res.nodes, witness or "()")


FIELDS = ("status", "welfare", "nodes", "witness")


def read_dump(path):
    """A dump's lines keyed by instance id and ``analysis``, or by instance
    id, notion, goal and requested algorithm; the value is the rest."""
    rows = {}
    with open(path) as f:
        for parts in map(str.split, f):
            if parts:
                cut = 2 if parts[1] == "analysis" else 4
                rows[tuple(parts[:cut])] = parts[cut:]
    return rows


def compare(old, new):
    """Counter of differing lines of two read dumps by (requested algorithm,
    route change, changed fields); analysis lines count under ``analysis``."""
    groups = Counter()
    for key in old.keys() | new.keys():
        was, now = old.get(key), new.get(key)
        if was == now:
            continue
        algo = key[-1] if len(key) == 4 else "analysis"
        if was is None or now is None:
            groups[algo, "-", "added" if was is None else "removed"] += 1
        elif algo == "analysis":
            groups[algo, "-", "facts"] += 1
        else:
            route = was[0] if was[0] == now[0] else f"{was[0]} => {now[0]}"
            fields = [f for f, x, y in zip(FIELDS, was[1:], now[1:]) if x != y]
            groups[algo, route, ",".join(fields) or "-"] += 1
    return groups


def print_comparison(old_path, new_path):
    old, new = read_dump(old_path), read_dump(new_path)
    groups = compare(old, new)
    print(f"{sum(groups.values())} of {len(new)} lines differ ({len(old)} before)")
    for (algo, route, fields), count in sorted(groups.items(), key=lambda g: (-g[1], g[0])):
        print(f"{count:7d}  {algo:<21} {route:<32} {fields}")


def dump():
    from gefalloc import ROUTES, EfficiencyGoal, FairnessNotion, analyze
    for name, inst in corpus():
        a = analyze(inst)
        g = a.graph
        owners = "none" if a.sgef_owners is None else ",".join(map(str, a.sgef_owners)) or "-"
        print(name, "analysis", a.prefs.kind.value, a.prefs.u_diff, g.kind.value,
              *(",".join(map(str, agents)) or "-" for agents in (g.sources, g.sinks, g.inner)),
              inst.m - a.stripped.m, owners)
        for notion in FairnessNotion:
            for goal in EfficiencyGoal:
                for algo in ["auto"] + [r.name for r in ROUTES if r.applies(a, notion, goal)]:
                    solve_line(name, inst, notion, goal, algo)
    for name, inst, goals in scan_corpus():
        for notion in FairnessNotion:
            for goal in goals:
                solve_line(name, inst, notion, goal, "brute")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="count the differing lines of two dumps instead of dumping")
    args = parser.parse_args(argv)
    if args.compare:
        print_comparison(*args.compare)
    else:
        dump()


if __name__ == "__main__":
    main()
