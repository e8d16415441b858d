import hashlib
import itertools
import random

import numpy as np
import pytest

from gefalloc import (
    EfficiencyGoal,
    FairnessNotion,
    classify_graph,
    is_complete,
    utilitarian_welfare,
    verify_fairness,
)
from gefalloc.errors import ValidationError
from gefalloc.exact import brute_force
from gefalloc.generators import (
    BINPACKING_VARIANTS,
    CLIQUE_VARIANTS,
    BinPackingInput,
    CliqueInput,
    clique_oracle,
    find_clique,
    find_packing,
    gen_from_binpacking,
    gen_from_clique,
    gen_random,
    instance_shape,
)
from gefalloc.graphs import GraphKind
from gefalloc.model import (
    PreferenceKind,
    Status,
    classify_preferences,
)

from reductions_ref import planted_clique_allocation, planted_packing_allocation

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT


def clique_of(inp):
    return find_clique(inp.n, inp.edges, inp.k)


def has_clique(inp):
    return clique_oracle(inp.n, inp.edges, inp.k)


def packing_of(inp):
    return find_packing(inp.sizes, inp.bins, inp.capacity)

TRIANGLE = CliqueInput(3, ((0, 1), (0, 2), (1, 2)), 3)
PATH3 = CliqueInput(3, ((0, 1), (1, 2)), 2)
# triangle plus a disjoint edge: m > C(3,2) holds, clique present
TRI_PLUS = CliqueInput(5, ((0, 1), (0, 2), (1, 2), (3, 4)), 3)
# 5-cycle: m > C(3,2) fails to contain a triangle
RING5 = CliqueInput(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 3)


PACK = BinPackingInput((1, 2, 3), 3, 2)

# sha256 of each variant's instance on one small input (see instance_digest),
# so an input gives the same instance in every run and on every platform
PINNED = {
    "thm44-outdeg2": (PATH3, "df152f37f2d9d4fec4c204bc91d73bf07d05a695e9bc3194411eb614f5d259f0"),
    # on PATH3 the two thm44 scales differ (n * m = 6, k * k = 4)
    "thm44-fewres": (PATH3, "26d3f0fdaa8fac04d5088fd15447482603ee709011f6d60a6d29e4d5671fa614"),
    "thm48": (TRI_PLUS, "5c1a10c21b745e3abc615babdf86f5eb198226f62efc2d1228bb9507af370308"),
    "prop56-dag": (TRI_PLUS, "07c01a49f4ab9b06290d40615ff5721e0fe7045f6a44ec8f36cf9c7da41e324d"),
    "prop56-scc": (TRI_PLUS, "d23b4fbbfb472c3cff15e8508b2b1f9fa9392132de0c9e7ddf39d42772eeb329"),
    "prop63": (TRI_PLUS, "35f3a1d3f94b2aee5cf52ab8bdcc25744ec0c1e6be663b03c29e36e2473110ce"),
    "thm58-path": (PACK, "c18531ffb1a9f84457455e3e53af3b2406ce3543d73b044afab79c5f334f265e"),
    "thm58-cycle": (PACK, "a43f88a7109b898afd6b99f679e91e367a2d27e8d765a7cf2d4e39e40da74159"),
    "prop53": (PACK, "5150e596e22fa13c9c047d6690ac37b98d2a19f21c20d52458196dd7536fc80e"),
}


def instance_digest(built):
    """sha256 over the agent and resource names, the shape, little-endian
    dtype and bytes of ``utilities`` and ``arcs``, and prop63's threshold."""
    inst, threshold = built if isinstance(built, tuple) else (built, None)
    h = hashlib.sha256()
    for names in (inst.agents, inst.resources):
        h.update("\n".join(names).encode() + b"\0")
    for arr in (inst.utilities, inst.arcs):
        le = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        h.update(f"{arr.shape} {le.dtype.str}\0".encode())
        h.update(le.tobytes())
    h.update(repr(threshold).encode())
    return h.hexdigest()


class TestPinnedOutput:
    def test_variant_order(self):
        assert CLIQUE_VARIANTS == (
            "thm44-outdeg2", "thm44-fewres", "thm48", "prop56-dag", "prop56-scc", "prop63",
        )
        assert BINPACKING_VARIANTS == ("thm58-path", "thm58-cycle", "prop53")

    @pytest.mark.parametrize("variant", CLIQUE_VARIANTS + BINPACKING_VARIANTS)
    def test_every_variant_builds_its_pinned_instance(self, variant):
        inp, digest = PINNED[variant]
        build = gen_from_clique if variant in CLIQUE_VARIANTS else gen_from_binpacking
        built = build(inp, variant)
        assert instance_digest(built) == digest
        inst = built[0] if isinstance(built, tuple) else built
        assert (inst.n, inst.m) == instance_shape(inp, variant)


class TestInputs:
    def test_clique_input_validation(self):
        with pytest.raises(ValidationError):
            CliqueInput(3, ((0, 0),), 2)  # self-loop
        with pytest.raises(ValidationError):
            CliqueInput(3, ((0, 1), (1, 0)), 2)  # duplicate edge
        with pytest.raises(ValidationError):
            CliqueInput(3, ((0, 3),), 2)  # vertex out of range
        with pytest.raises(ValidationError):
            CliqueInput(3, ((0, 1),), 1)  # k too small
        with pytest.raises(ValidationError):
            CliqueInput(3, ((0, 1),), 4)  # k too large

    def test_binpacking_input_validation(self):
        BinPackingInput((1, 2, 3), 3, 2)
        with pytest.raises(ValidationError):
            BinPackingInput((1, 2, 3), 3, 3)  # sizes sum != bins * capacity
        with pytest.raises(ValidationError):
            BinPackingInput((0, 3, 3), 3, 2)  # nonpositive size


class TestCliqueSizes:
    def test_fewres_triangle_counts(self):
        inst = gen_from_clique(TRIANGLE, "thm44-fewres")
        assert inst.n == 9**4 + 3 * 9 + 3 == 6591
        assert inst.m == 9**4 + 3 * 9 + 3 == 6591

    def test_outdeg2_counts_and_degree(self):
        inp = PATH3
        x = inp.n * inp.m  # 6
        inst = gen_from_clique(inp, "thm44-outdeg2")
        assert inst.n == x**4 + inp.n * x + inp.m
        assert inst.m == x**4 + inp.k * x + inp.k2
        assert classify_graph(inst).max_out_degree == 2

    def test_prop63_counts_and_threshold(self):
        inst, w = gen_from_clique(TRI_PLUS, "prop63")
        assert inst.n == 1 + TRI_PLUS.n + TRI_PLUS.m
        assert inst.m == 1 + TRI_PLUS.k + TRI_PLUS.k2
        assert w == 1 + 2 * TRI_PLUS.k + 2 * TRI_PLUS.k2


class TestStructuralFidelity:
    def test_thm48_strongly_connected_outdeg3(self):
        # max degree 2 in the input keeps the out-degree bound at 3
        inp = CliqueInput(
            5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), 3
        )
        inst = gen_from_clique(inp, "thm48")
        gc = classify_graph(inst)
        assert gc.kind is GraphKind.STRONGLY_CONNECTED
        assert gc.max_out_degree <= 3
        prefs = classify_preferences(inst)
        assert prefs.zero_one

    def test_prop56_dag_acyclic_outdeg3(self):
        inst = gen_from_clique(TRI_PLUS, "prop56-dag")
        gc = classify_graph(inst)
        assert gc.kind is GraphKind.ACYCLIC
        assert gc.max_out_degree <= 3
        assert classify_preferences(inst).zero_one

    def test_prop56_scc_strongly_connected(self):
        inst = gen_from_clique(TRI_PLUS, "prop56-scc")
        assert classify_graph(inst).kind is GraphKind.STRONGLY_CONNECTED

    def test_thm44_identical_all_ones(self):
        inst = gen_from_clique(TRIANGLE, "thm44-fewres")
        prefs = classify_preferences(inst)
        assert prefs.identical and prefs.zero_one
        assert int(inst.utilities.min()) == 1

    def test_thm58_outdeg1(self):
        inst = gen_from_binpacking(BinPackingInput((1, 2, 3), 3, 2), "thm58-path")
        assert classify_graph(inst).max_out_degree == 1


class TestPlantedAllocations:
    def test_thm44_planted(self):
        for variant, inp in (
            ("thm44-fewres", TRIANGLE),
            ("thm44-outdeg2", PATH3),
        ):
            clique = clique_of(inp)
            assert clique is not None
            inst = gen_from_clique(inp, variant)
            alloc = planted_clique_allocation(inp, variant, clique)
            assert verify_fairness(inst, alloc, WEAK) is None
            assert is_complete(inst, alloc)

    def test_prop56_planted(self):
        for variant in ("prop56-dag", "prop56-scc"):
            clique = clique_of(TRI_PLUS)
            inst = gen_from_clique(TRI_PLUS, variant)
            alloc = planted_clique_allocation(TRI_PLUS, variant, clique)
            assert verify_fairness(inst, alloc, STRICT) is None
            assert is_complete(inst, alloc)

    def test_prop63_planted_reaches_threshold(self):
        clique = clique_of(TRI_PLUS)
        inst, w = gen_from_clique(TRI_PLUS, "prop63")
        alloc = planted_clique_allocation(TRI_PLUS, "prop63", clique)
        assert verify_fairness(inst, alloc, WEAK) is None
        assert utilitarian_welfare(inst, alloc) >= w

    def test_planted_rejects_non_clique(self):
        with pytest.raises(ValidationError):
            planted_clique_allocation(RING5, "prop63", (0, 1, 2))

    def test_packing_planted(self):
        inp = BinPackingInput((1, 2, 3), 3, 2)
        packing = packing_of(inp)
        assert packing is not None
        for variant in BINPACKING_VARIANTS:
            inst = gen_from_binpacking(inp, variant)
            if isinstance(inst, tuple):
                inst = inst[0]
            alloc = planted_packing_allocation(inp, variant, packing)
            assert verify_fairness(inst, alloc, STRICT) is None
            assert is_complete(inst, alloc)


class TestBinPackingBidirectional:
    def test_spec_scale_equivalence(self):
        # every input with k <= 2, n <= 4, B <= 5 for the path/cycle
        # variants; the identical-preferences variant is swept to B <= 4
        # (at B = 5 an infeasible instance needs a full 9-agent scan)
        checked = 0
        for bins in (1, 2):
            for cap in range(1, 6):
                total = bins * cap
                for n_items in range(1, 5):
                    for sizes in itertools.combinations_with_replacement(
                        range(1, cap + 1), n_items
                    ):
                        if sum(sizes) != total:
                            continue
                        inp = BinPackingInput(sizes, cap, bins)
                        packable = packing_of(inp) is not None
                        variants = list(BINPACKING_VARIANTS)
                        if cap > 4:
                            variants.remove("prop53")
                        for variant in variants:
                            inst = gen_from_binpacking(inp, variant)
                            res = brute_force(
                                inst, STRICT, EfficiencyGoal.COMPLETE,
                                budget=4 * 10**8,
                            )
                            assert (res.status is Status.FEASIBLE) == packable, (
                                sizes, cap, bins, variant,
                            )
                            checked += 1
        assert checked >= 30

    def test_prop53_largest_feasible_case(self):
        inp = BinPackingInput((5, 5), 5, 2)
        inst = gen_from_binpacking(inp, "prop53")
        res = brute_force(inst, STRICT, EfficiencyGoal.COMPLETE, budget=10**9)
        assert res.status is Status.FEASIBLE

    def test_spec_examples(self):
        yes = gen_from_binpacking(BinPackingInput((1, 2, 3), 3, 2), "thm58-path")
        assert yes.n == 4 and yes.m == 6
        assert brute_force(yes, STRICT, EfficiencyGoal.COMPLETE).status is Status.FEASIBLE
        no = gen_from_binpacking(BinPackingInput((2, 2, 2), 3, 2), "thm58-path")
        assert brute_force(no, STRICT, EfficiencyGoal.COMPLETE).status is Status.INFEASIBLE
        p53 = gen_from_binpacking(BinPackingInput((1, 2, 3), 3, 2), "prop53")
        assert p53.n == 7 and p53.m == 8


class TestProp63Bidirectional:
    def test_threshold_reached_iff_clique(self):
        cases = [TRI_PLUS, RING5, CliqueInput(4, ((0, 1), (1, 2), (2, 3), (0, 3)), 3)]
        for inp in cases:
            inst, w = gen_from_clique(inp, "prop63")
            res = brute_force(inst, WEAK, EfficiencyGoal.MAX_WELFARE)
            assert res.status is Status.FEASIBLE
            assert (res.welfare >= w) == has_clique(inp)


class TestRandom:
    def test_deterministic(self):
        a = gen_random(3, 4, PreferenceKind.GENERAL, None, 5, 123)
        b = gen_random(3, 4, PreferenceKind.GENERAL, None, 5, 123)
        assert a.to_document() == b.to_document()
        c = gen_random(3, 4, PreferenceKind.GENERAL, None, 5, 124)
        assert a.to_document() != c.to_document()

    def test_class_guarantees(self):
        rng = random.Random(67)
        for trial in range(40):
            n, m = rng.randint(1, 4), rng.randint(0, 5)
            kind = list(PreferenceKind)[trial % len(PreferenceKind)]
            shape = [GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED, None][trial % 3]
            inst = gen_random(n, m, kind, shape, 3, 3000 + trial)
            prefs = classify_preferences(inst)
            if kind is PreferenceKind.IDENTICAL:
                assert prefs.identical
            elif kind is PreferenceKind.ZERO_ONE:
                assert prefs.zero_one
            elif kind is PreferenceKind.IDENTICAL_ZERO_ONE:
                assert prefs.identical and prefs.zero_one
            gc = classify_graph(inst)
            if shape is GraphKind.ACYCLIC:
                assert gc.kind is GraphKind.ACYCLIC
            elif shape is GraphKind.STRONGLY_CONNECTED and n > 1:
                assert gc.kind is GraphKind.STRONGLY_CONNECTED


class TestCliqueOracle:
    def test_hand_cases(self):
        k4 = CliqueInput(4, tuple(itertools.combinations(range(4), 2)), 3)
        assert has_clique(k4)
        p4 = CliqueInput(4, ((0, 1), (1, 2), (2, 3)), 3)
        assert not has_clique(p4)

    def test_matches_independent_enumeration(self):
        rng = random.Random(71)
        for trial in range(60):
            n = 7
            edges = tuple(
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
            )
            k = rng.randint(2, 4)
            if not edges:
                continue
            inp = CliqueInput(n, edges, k)
            eset = set(edges)
            want = any(
                all(tuple(sorted(p)) in eset for p in itertools.combinations(sub, 2))
                for sub in itertools.combinations(range(n), k)
            )
            assert has_clique(inp) == want
            found = clique_of(inp)
            assert (found is not None) == want
            if found is not None:
                assert all(
                    tuple(sorted(p)) in eset
                    for p in itertools.combinations(found, 2)
                )
