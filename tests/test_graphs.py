import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gefalloc import (
    GraphKind,
    GuardError,
    Instance,
    classify_graph,
    longest_path_labels,
    scc_condensation,
    topological_order,
)
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
            reach = reachable_from(inst, [0])
            back = reachable_from(make(n, [(b, a) for a, b in arcs]), [0])
            forward_only += len(reach) == n
            backward_only += len(back) == n
        assert forward_only > 20 and backward_only > 20


class TestTopologicalOrder:
    def test_lexicographically_smallest(self):
        inst = make(4, [(2, 1), (3, 1), (1, 0)])
        assert topological_order(inst) == [2, 3, 1, 0]

    def test_cycle_raises(self):
        with pytest.raises(GuardError):
            topological_order(make(2, [(0, 1), (1, 0)]))

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
            order = topological_order(make(n, arcs))
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[a] < pos[b] for a, b in arcs)


class TestLongestPathLabels:
    def test_path(self):
        # chain a0 -> a1 -> a2: labels count the hops still ahead
        assert longest_path_labels(make(3, [(0, 1), (1, 2)])) == [2, 1, 0]

    def test_diamond(self):
        arcs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert longest_path_labels(make(4, arcs)) == [2, 1, 1, 0]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arc_inequality_on_random_dags(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        arcs = sorted(
            data.draw(st.sets(st.sampled_from(pairs))) if pairs else []
        )
        labels = longest_path_labels(make(n, arcs))
        for a, b in arcs:
            assert labels[a] >= labels[b] + 1


def test_is_acyclic_and_reachability():
    inst = make(4, [(0, 1), (1, 2)])
    assert classify_graph(inst).kind is GraphKind.ACYCLIC
    assert reachable_from(inst, [0]) == {0, 1, 2}
    assert reachable_from(inst, [3]) == {3}
