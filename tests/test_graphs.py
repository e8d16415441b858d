import functools
import importlib.util
import itertools
import pathlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gefalloc import (
    EfficiencyGoal,
    FairnessNotion,
    GraphKind,
    Instance,
    PreferenceKind,
    analyze,
    classify_graph,
    gen_random,
    scc_condensation,
    solve,
)
from gefalloc.exact import _sgef_owners
from gefalloc.graphs import reachable_from


def make(n, arcs):
    return Instance(
        [f"a{i}" for i in range(n)],
        ["r0"],
        [[1]] * n if n else [],
        arcs,
    )


def reference_sccs(n, arcs):
    """Components from pairwise mutual reachability, brute force."""
    adj = {v: set() for v in range(n)}
    for a, b in arcs:
        adj[a].add(b)
    reach = []
    for v in range(n):
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach.append(seen)
    comps = []
    assigned = set()
    for v in range(n):
        if v in assigned:
            continue
        comp = {w for w in range(n) if w in reach[v] and v in reach[w]}
        comps.append(tuple(sorted(comp)))
        assigned |= comp
    return sorted(comps)


def random_arcs(rng, n, p):
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and rng.random() < p
    ]


class TestCondensation:
    def test_single_cycle(self):
        cond = scc_condensation(make(3, [(0, 1), (1, 2), (2, 0)]))
        assert cond.components == ((0, 1, 2),)
        assert cond.arcs == frozenset()

    def test_two_components(self):
        cond = scc_condensation(make(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]))
        assert cond.components == ((0, 1), (2, 3))
        assert cond.arcs == frozenset({(0, 1)})
        assert [cond.in_degree(c) for c in range(2)] == [0, 1]

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 8)
            arcs = random_arcs(rng, n, 0.3)
            cond = scc_condensation(make(n, arcs))
            assert sorted(cond.components) == reference_sccs(n, arcs)

    def test_comp_arcs_form_dag(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(1, 8)
            cond = scc_condensation(make(n, random_arcs(rng, n, 0.4)))
            q = len(cond.components)
            indeg = [cond.in_degree(c) for c in range(q)]
            # Kahn peeling succeeds exactly on DAGs
            arcs = set(cond.arcs)
            ready = [c for c in range(q) if indeg[c] == 0]
            seen = 0
            while ready:
                c = ready.pop()
                seen += 1
                for (a, b) in list(arcs):
                    if a == c:
                        arcs.discard((a, b))
                        indeg[b] -= 1
                        if indeg[b] == 0:
                            ready.append(b)
            assert seen == q

    def test_handles_deep_recursion(self):
        n = 5000
        arcs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
        cond = scc_condensation(make(n, arcs))
        assert len(cond.components) == 1


class TestClassifyGraph:
    def test_acyclic(self):
        gc = classify_graph(make(3, [(0, 1), (0, 2)]))
        assert gc.kind is GraphKind.ACYCLIC
        assert gc.sources == (0,)
        assert gc.sinks == (1, 2)
        assert gc.max_out_degree == 2

    def test_single_agent_is_acyclic(self):
        assert classify_graph(make(1, [])).kind is GraphKind.ACYCLIC

    def test_strongly_connected(self):
        gc = classify_graph(make(2, [(0, 1), (1, 0)]))
        assert gc.kind is GraphKind.STRONGLY_CONNECTED

    def test_general(self):
        gc = classify_graph(make(3, [(0, 1), (1, 0), (1, 2)]))
        assert gc.kind is GraphKind.GENERAL

    def test_isolated_vertex_is_source_and_sink_not_inner(self):
        gc = classify_graph(make(2, [(0, 1)]))
        assert 1 in gc.sinks and 0 in gc.sources and gc.inner == ()


def graph_corpus(count, seed):
    """Seeded digraphs, n 0-9 and arc density 0-1, in four families: plain
    random ones; random ones with isolated agents; a few cycles joined one
    way, so that there is no source or sink, yet agent 0 cannot reach some
    cycle or some cycle cannot reach agent 0; and a random graph on agents
    1.. with a cycle through agent 0 added."""
    rng = random.Random(seed)
    for i in range(count):
        family, n, p = i % 4, rng.randint(0, 9), rng.random()
        arcs = set(random_arcs(rng, n, p))
        if family == 1 and n:
            for v in rng.sample(range(n), rng.randint(1, n)):
                arcs = {(a, b) for a, b in arcs if v not in (a, b)}
        elif family == 2 and n >= 4:
            agents = rng.sample(range(n), n)
            sizes = [2] * rng.randint(2, min(3, n // 2))
            for _ in range(n - 2 * len(sizes)):
                sizes[rng.randrange(len(sizes))] += 1
            ends = list(itertools.accumulate(sizes))
            cycles = [agents[lo:hi] for lo, hi in zip([0] + ends, ends)]
            arcs = {(c[k], c[(k + 1) % len(c)]) for c in cycles for k in range(len(c))}
            # arcs only from earlier cycles to later ones
            for x, y in itertools.combinations(cycles, 2):
                arcs |= {(a, b) for a in x for b in y if rng.random() < p}
        elif family == 3 and n >= 3:
            k = rng.randint(2, n - 1)
            arcs = {(a, b) for a, b in arcs if a and b}
            arcs |= {(v, (v + 1) % k) for v in range(k)}
        yield n, sorted(arcs)


def reference_class(inst):
    """kind, max out-degree, sources, sinks and inner agents, through the
    condensation."""
    n = inst.n
    cond = scc_condensation(inst)
    out_deg, in_deg = [0] * n, [0] * n
    for a, b in inst.arc_pairs():
        out_deg[a] += 1
        in_deg[b] += 1
    if all(len(c) == 1 for c in cond.components):
        kind = GraphKind.ACYCLIC
    elif len(cond.components) == 1:
        kind = GraphKind.STRONGLY_CONNECTED
    else:
        kind = GraphKind.GENERAL
    return (kind, max(out_deg, default=0),
            tuple(v for v in range(n) if in_deg[v] == 0),
            tuple(v for v in range(n) if out_deg[v] == 0),
            tuple(v for v in range(n) if in_deg[v] and out_deg[v]))


class TestClassifyAgainstCondensation:
    def test_matches_condensation_on_seeded_digraphs(self):
        kinds = {kind: 0 for kind in GraphKind}
        for n, arcs in itertools.chain([(0, []), (1, [])], graph_corpus(2400, 17)):
            inst = make(n, arcs)
            gc = classify_graph(inst)
            got = (gc.kind, gc.max_out_degree, gc.sources, gc.sinks, gc.inner)
            assert got == reference_class(inst), (n, arcs)
            assert gc.condensation == scc_condensation(inst)
            kinds[gc.kind] += 1
        # every kind shows up often
        assert min(kinds.values()) > 300

    def test_sourceless_sinkless_general_graphs_are_covered(self):
        """Cycles joined one way: forward reach from agent 0 alone, or
        backward reach alone, would call some of them strongly connected."""
        forward_only = backward_only = 0
        for n, arcs in graph_corpus(2400, 17):
            inst = make(n, arcs)
            gc = classify_graph(inst)
            if gc.sources or gc.sinks or gc.kind is not GraphKind.GENERAL:
                continue
            reach = reachable_from(gc.succ, [0])
            back = reachable_from(classify_graph(make(n, [(b, a) for a, b in arcs])).succ, [0])
            forward_only += len(reach) == n
            backward_only += len(back) == n
        assert forward_only > 20 and backward_only > 20


class TestTopologicalOrder:
    def test_lexicographically_smallest(self):
        inst = make(4, [(2, 1), (3, 1), (1, 0)])
        assert classify_graph(inst).order == [2, 3, 1, 0]

    def test_every_arc_respects_order(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 8)
            arcs = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.4
            ]
            order = classify_graph(make(n, arcs)).order
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[a] < pos[b] for a, b in arcs)


class TestLongestPathLabels:
    def test_path(self):
        # chain a0 -> a1 -> a2: labels count the hops still ahead
        assert classify_graph(make(3, [(0, 1), (1, 2)])).labels == [2, 1, 0]

    def test_diamond(self):
        arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert classify_graph(make(4, arcs)).labels == [2, 1, 1, 0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arc_inequality_on_random_dags(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        arcs = sorted(
            data.draw(st.sets(st.sampled_from(pairs))) if pairs else []
        )
        labels = classify_graph(make(n, arcs)).labels
        for a, b in arcs:
            assert labels[a] >= labels[b] + 1


def test_is_acyclic_and_reachability():
    inst = make(4, [(0, 1), (1, 2)])
    graph = classify_graph(inst)
    assert graph.kind is GraphKind.ACYCLIC
    assert reachable_from(graph.succ, [0]) == {0, 1, 2}
    assert reachable_from(graph.succ, [3]) == {3}


def reference_order(n, arcs):
    """Kahn's peel by definition: place the smallest agent none of whose
    in-neighbours is still unplaced, until no such agent is left."""
    left, order = set(range(n)), []
    while True:
        ready = [v for v in sorted(left) if not any(a in left for a, b in arcs if b == v)]
        if not ready:
            return order
        order.append(ready[0])
        left.remove(ready[0])


def reference_labels(n, arcs):
    """Longest path (in arcs) starting at each agent, by memoized DFS."""
    @functools.lru_cache(maxsize=None)
    def longest(v):
        return max((1 + longest(b) for a, b in arcs if a == v), default=0)

    return [longest(v) for v in range(n)]


def old_case5_owners(inst, graph):
    """``_sgef_owners``'s case 5 as it was: sinks keyed by frozensets of
    their watchers, recounted from the arcs."""
    m, sinks = inst.m, set(graph.sinks)
    owners = [v for v in range(inst.n) if v not in sinks]
    watchers = [set() for _ in range(inst.n)]
    for a, b in inst.arc_pairs():
        watchers[b].add(a)
    by_watchers = {}
    for s in graph.sinks:
        by_watchers.setdefault(frozenset(watchers[s]), []).append(s)
    return sorted(owners + [s for same in by_watchers.values() for s in same[:m]])


def route_dump():
    """``tools/route_dump.py``, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "route_dump.py"
    spec = importlib.util.spec_from_file_location("route_dump", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGraphFacts:
    """Every fact ``GraphClass`` carries against a recount from the arcs."""

    def test_facts_match_references(self):
        for n, arcs in itertools.chain([(0, []), (1, [])], graph_corpus(600, 23)):
            inst = make(n, arcs)
            gc = classify_graph(inst)
            assert gc.succ == [[b for a, b in arcs if a == v] for v in range(n)]
            assert gc.pred == [[a for a, b in arcs if b == v] for v in range(n)]
            assert gc.order == reference_order(n, arcs), (n, arcs)
            assert (len(gc.order) == n) == (gc.kind is GraphKind.ACYCLIC)
            if gc.kind is GraphKind.ACYCLIC:
                assert gc.labels == reference_labels(n, arcs)
            cond = gc.condensation
            comp = {v: c for c, members in enumerate(cond.components) for v in members}
            for c in range(len(cond.components)):
                assert cond.in_degree(c) == sum(b == c for _, b in cond.arcs)
                assert cond.in_degree(c) == len({comp[a] for a, b in arcs
                                                 if comp[b] == c and comp[a] != c})

    def test_case5_owners_match_watcher_sets(self):
        dump = route_dump()
        checked = 0
        for inst in itertools.chain(dump.case5(300, 2, 4, 6), dump.case5(12, 3, 9, 10)):
            graph = classify_graph(inst)
            if graph.sources or inst.m >= inst.n:
                continue
            owners = _sgef_owners(inst, graph)
            if owners is None or len(owners) == inst.m:
                continue
            assert owners == old_case5_owners(inst, graph), inst
            checked += 1
        assert checked > 250


class TestOneReadingOfTheArcs:
    def test_auto_solves_read_the_arcs_once(self, monkeypatch):
        """An auto solve turns the instance's arcs into adjacency lists once,
        in ``classify_graph``; ``struct-fpt`` adds Tarjan's reading when the
        stripped instance has a resource.  A small budget lets auto pick
        ``struct-fpt`` on identical preferences over general graphs."""
        import gefalloc.graphs as graphs

        reads = []
        build = graphs.arc_lists
        monkeypatch.setattr(graphs, "arc_lists",
                            lambda n, pairs: reads.append(pairs) or build(n, pairs))
        seen = {}
        rng, dump = random.Random(19), route_dump()
        shapes = [(kind, graph) for kind in PreferenceKind
                  for graph in (GraphKind.ACYCLIC, None)]
        corpus = itertools.chain(
            (gen_random(rng.randint(1, 5), rng.randint(0, 6), *shapes[i % len(shapes)],
                        rng.choice([1, 9]), i) for i in range(400)),
            dump.case5(60, 2, 4, 6), dump.identical_general(60, 5))
        for inst in corpus:
            a = analyze(inst)
            n, m = a.stripped.n, a.stripped.m
            case5 = not a.graph.sources and n - len(a.graph.sinks) < m < n
            want = {"alg1": 1, "manyvalues": 1, "sgef-fpt": 1 if case5 else None,
                    "struct-fpt": 2 if m else 1}
            for notion in FairnessNotion:
                for goal in EfficiencyGoal:
                    reads.clear()
                    res = solve(inst, notion, goal, budget=1000)
                    if want.get(res.route) is None:
                        continue
                    own = sum(pairs is inst.arc_pairs() for pairs in reads)
                    assert own == want[res.route], (res.route, inst.to_document())
                    key = (res.route, own)
                    seen[key] = seen.get(key, 0) + 1
        assert set(seen) == {("alg1", 1), ("manyvalues", 1), ("sgef-fpt", 1),
                             ("struct-fpt", 1), ("struct-fpt", 2)}, seen
