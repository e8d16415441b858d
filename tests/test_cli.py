import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gefalloc
from gefalloc import Instance, parse_validate
from gefalloc.cli import main


def write_instance(tmp_path, name, utilities, arcs):
    n = len(utilities)
    m = len(utilities[0]) if utilities else 0
    inst = Instance(
        [f"a{i}" for i in range(n)], [f"r{i}" for i in range(m)], utilities, arcs
    )
    path = tmp_path / name
    path.write_text(json.dumps(inst.to_document()))
    return str(path)


class TestSolve:
    def test_feasible_exit_and_document(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", [[1, 2], [2, 1]], [(0, 1)])
        assert main(["solve", path]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert len(out.splitlines()) == 2 + len(doc)  # braces, one line per key
        assert doc["verdict"] == "feasible"
        assert doc["allocation"] is not None
        assert doc["algorithm"]
        assert doc["nodes"] >= 0

    def test_infeasible_exit(self, tmp_path, capsys):
        # strict 2-cycle with one resource has no fair complete allocation
        path = write_instance(tmp_path, "i.json", [[1], [1]], [(0, 1), (1, 0)])
        assert main(["solve", "--notion", "strict", path]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"

    def test_budget_exit(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, "i.json", [[1] * 6] * 4, [(0, 1), (1, 0)]
        )
        code = main(
            ["solve", "--notion", "strict", "--algo", "brute", "--budget", "5", path]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "budget"

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/instance.json"]) == 2

    def test_utility_beyond_64_bits_malformed(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(
            {"agents": ["a0"], "resources": ["r0"], "utilities": [[2**64]], "arcs": []}
        ))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_array_arc_endpoint_malformed(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(
            {"agents": ["a0", "a1"], "resources": ["r0"], "utilities": [[1], [1]],
             "arcs": [[["a0"], "a1"]]}
        ))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_deeply_nested_file_malformed(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_forced_ident_enum_honours_budget(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", [[1] * 8] * 2, [(0, 1), (1, 0)])
        argv = ["solve", "--notion", "strict", "--algo", "ident-enum", path]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["nodes"] == 256
        assert main(argv[:1] + ["--budget", "5"] + argv[1:]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "budget" and doc["nodes"] == 5

    def test_forced_ilp_honours_budget(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, "i.json",
            [[1, 2, 3, 4, 5, 6, 7, 8], [8, 7, 6, 5, 4, 3, 2, 1],
             [2, 3, 5, 7, 11, 13, 17, 19], [4, 1, 3, 1, 5, 9, 2, 6]],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        argv = ["solve", "--notion", "strict", "--algo", "ilp", path]
        assert main(argv[:1] + ["--budget", "10"] + argv[1:]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "budget" and doc["nodes"] == 10

    def test_forced_struct_fpt_honours_budget(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, "i.json", [[1, 1, 1]] * 3, [(0, 1), (1, 0), (1, 2)]
        )
        argv = ["solve", "--algo", "struct-fpt", path]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 6
        assert main(argv[:1] + ["--budget", "1"] + argv[1:]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "budget" and doc["nodes"] == 1

    def test_guard_violation_is_malformed(self, tmp_path, capsys):
        # the dag row does not serve a cyclic graph
        path = write_instance(tmp_path, "i.json", [[1], [1]], [(0, 1), (1, 0)])
        assert main(["solve", "--algo", "dag", path]) == 2

    def test_out_file(self, tmp_path):
        path = write_instance(tmp_path, "i.json", [[1]], [])
        out = tmp_path / "result.json"
        assert main(["solve", "--out", str(out), path]) == 0
        assert json.loads(out.read_text())["verdict"] == "feasible"

    def test_welfare_goal_reports_welfare(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", [[2, 1], [1, 2]], [])
        assert main(["solve", "--goal", "welfare", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["welfare"] == 4

    def test_no_agents_with_resources_is_infeasible(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(
            {"agents": [], "resources": ["r0"], "utilities": [], "arcs": []}
        ))
        for notion in ("weak", "strict"):
            assert main(["solve", "--notion", notion, str(path)]) == 1
            assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"

    def test_forced_alg2_rejects_welfare(self, tmp_path, capsys):
        path = write_instance(tmp_path, "i.json", [[1, 3, 2, 3], [3, 3, 3, 1]], [(0, 1)])
        assert main(["solve", "--goal", "welfare", "--algo", "alg2", path]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["solve", "--goal", "welfare", path]) == 0
        assert json.loads(capsys.readouterr().out)["welfare"] == 12

    def test_algorithm_names_the_route_that_ran(self, tmp_path, capsys):
        dag = write_instance(tmp_path, "dag.json", [[1, 3, 2, 3], [3, 3, 3, 1]], [(0, 1)])
        assert main(["solve", "--goal", "pareto", dag]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "alg2"
        # no fair complete allocation, so the welfare solve falls back
        cycle = write_instance(tmp_path, "cycle.json", [[1], [1]], [(0, 1), (1, 0)])
        assert main(["solve", "--goal", "welfare", cycle]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "scc-id01->brute"


class TestVerify:
    def write_alloc(self, tmp_path, mapping):
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({"assignment": mapping}))
        return str(path)

    def test_pass(self, tmp_path):
        inst = write_instance(tmp_path, "i.json", [[2, 1], [1, 2]], [(0, 1)])
        alloc = self.write_alloc(tmp_path, {"r0": "a0", "r1": "a1"})
        assert main(["verify", inst, alloc]) == 0

    def test_violated_arc_named(self, tmp_path, capsys):
        inst = write_instance(tmp_path, "i.json", [[1, 1], [1, 1]], [(0, 1)])
        alloc = self.write_alloc(tmp_path, {"r0": "a1", "r1": "a1"})
        assert main(["verify", inst, alloc]) == 1
        assert "(a0, a1)" in capsys.readouterr().err

    def test_incomplete_fails_complete_goal(self, tmp_path, capsys):
        inst = write_instance(tmp_path, "i.json", [[1]], [])
        alloc = self.write_alloc(tmp_path, {})
        assert main(["verify", inst, alloc]) == 1
        assert "complete" in capsys.readouterr().err

    def test_pareto_goal(self, tmp_path, capsys):
        inst = write_instance(tmp_path, "i.json", [[0], [1]], [])
        dominated = self.write_alloc(tmp_path, {"r0": "a0"})
        assert main(["verify", "--goal", "pareto", inst, dominated]) == 1
        good = self.write_alloc(tmp_path, {"r0": "a1"})
        assert main(["verify", "--goal", "pareto", inst, good]) == 0

    def test_welfare_goal(self, tmp_path):
        inst = write_instance(tmp_path, "i.json", [[2, 1], [1, 2]], [])
        best = self.write_alloc(tmp_path, {"r0": "a0", "r1": "a1"})
        assert main(["verify", "--goal", "welfare", inst, best]) == 0
        worse = self.write_alloc(tmp_path, {"r0": "a1", "r1": "a0"})
        assert main(["verify", "--goal", "welfare", inst, worse]) == 1

    def test_pareto_check_over_budget(self, tmp_path, capsys):
        inst = write_instance(tmp_path, "i.json", [[2, 1, 2], [1, 2, 1]], [])
        alloc = self.write_alloc(tmp_path, {"r0": "a0", "r1": "a1", "r2": "a0"})
        assert main(["verify", "--goal", "pareto", inst, alloc]) == 0
        # the budget itself, as solve reports it, and none below zero
        for budget, nodes in (("10", 10), ("0", 0), ("-1", 0)):
            capsys.readouterr()
            assert main(["verify", "--goal", "pareto", "--budget", budget, inst, alloc]) == 3
            assert capsys.readouterr().err == (
                f"error: search budget exceeded after {nodes} nodes\n")

    def test_welfare_reference_over_budget(self, tmp_path, capsys):
        inst = write_instance(tmp_path, "i.json", [[2, 1, 1, 1], [1, 2, 1, 1]], [])
        alloc = self.write_alloc(tmp_path, {"r0": "a0", "r1": "a1"})
        for budget, nodes in (("5", 5), ("0", 0), ("-1", 0)):
            assert main(["verify", "--goal", "welfare", "--budget", budget, inst, alloc]) == 3
            assert capsys.readouterr().err == (
                f"error: search budget exceeded after {nodes} nodes\n")
        assert main(["verify", "--goal", "welfare", inst, alloc]) == 1

    def test_unknown_names_malformed(self, tmp_path):
        inst = write_instance(tmp_path, "i.json", [[1]], [])
        alloc = self.write_alloc(tmp_path, {"r9": "a0"})
        assert main(["verify", inst, alloc]) == 2

    @pytest.mark.parametrize("nested", ["instance", "allocation"])
    def test_deeply_nested_file_malformed(self, tmp_path, capsys, nested):
        inst = write_instance(tmp_path, "i.json", [[1]], [])
        alloc = self.write_alloc(tmp_path, {"r0": "a0"})
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        args = [str(deep), alloc] if nested == "instance" else [inst, str(deep)]
        assert main(["verify", *args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_array_agent_malformed(self, tmp_path, capsys):
        inst = write_instance(tmp_path, "i.json", [[1]], [])
        alloc = self.write_alloc(tmp_path, {"r0": ["a0"]})
        assert main(["verify", inst, alloc]) == 2
        assert capsys.readouterr().err.startswith("error:")


# README's generate examples but thm44-fewres on the triangle (6,591 x
# 6,591), and a small instance of every other variant but thm48, whose
# smallest is 531,477 x 87 (160 MB written; its digest is pinned in
# test_generators.py)
GENERATED = [
    ("thm58-path", "--items", "1,2,3", "--capacity", "3", "--bins", "2"),
    ("prop63", "--graph-n", "4", "--edges", "0-1,1-2,0-2", "--k", "3"),
    ("random", "--n", "4", "--m", "6", "--pref-class", "zero-one",
     "--graph-class", "acyclic", "--seed", "7"),
    ("thm44-outdeg2", "--graph-n", "3", "--edges", "0-1,1-2", "--k", "2"),
    ("thm44-fewres", "--graph-n", "3", "--edges", "0-1,1-2", "--k", "2"),
    ("prop56-dag", "--graph-n", "5", "--edges", "0-1,0-2,1-2,3-4", "--k", "3"),
    ("prop56-scc", "--graph-n", "5", "--edges", "0-1,0-2,1-2,3-4", "--k", "3"),
    ("thm58-cycle", "--items", "1,2,3", "--capacity", "3", "--bins", "2"),
    ("prop53", "--items", "1,2,3", "--capacity", "3", "--bins", "2"),
]


def built(variant, *options):
    """The document of the instance ``generate`` builds, from
    ``Instance.to_document`` (and prop63's threshold)."""
    opts = dict(zip(options[::2], options[1::2]))
    if variant in gefalloc.generators.CLIQUE_VARIANTS:
        edges = tuple(tuple(map(int, e.split("-"))) for e in opts["--edges"].split(","))
        inp = gefalloc.generators.CliqueInput(int(opts["--graph-n"]), edges, int(opts["--k"]))
        made = gefalloc.generators.gen_from_clique(inp, variant)
    elif variant in gefalloc.generators.BINPACKING_VARIANTS:
        sizes = tuple(map(int, opts["--items"].split(",")))
        inp = gefalloc.generators.BinPackingInput(sizes, int(opts["--capacity"]),
                                                  int(opts["--bins"]))
        made = gefalloc.generators.gen_from_binpacking(inp, variant)
    else:
        made = gefalloc.gen_random(
            int(opts["--n"]), int(opts["--m"]),
            gefalloc.PreferenceKind(opts.get("--pref-class", "general")),
            None if opts.get("--graph-class", "any") == "any"
            else gefalloc.GraphKind(opts["--graph-class"]),
            3, int(opts.get("--seed", 0)))
    inst, threshold = made if isinstance(made, tuple) else (made, None)
    doc = inst.to_document()
    if threshold is not None:
        doc["threshold"] = threshold
    return doc


class TestGenerate:
    @pytest.mark.parametrize("args", GENERATED, ids=[a[0] for a in GENERATED])
    def test_document_is_the_instance_document(self, tmp_path, capsys, args):
        """An instance document, written row by row, reads back as the
        instance's own document, to a file and to stdout alike: its keys
        indented, each name list, the arcs and each utility row on one
        line."""
        out = tmp_path / "i.json"
        assert main(["generate", "--variant", *args, "--out", str(out)]) == 0
        text = out.read_text()
        assert json.loads(text) == built(*args)
        assert main(["generate", "--variant", *args]) == 0
        assert capsys.readouterr().out == text
        # braces, one line per key, the utilities' brackets and one per row
        doc = json.loads(text)
        assert len(text.splitlines()) == 3 + len(doc) + len(doc["agents"])

    def test_random_round_trips(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(
            [
                "generate", "--variant", "random", "--n", "3", "--m", "4",
                "--pref-class", "zero-one", "--graph-class", "acyclic",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        inst = parse_validate(json.loads(out.read_text()))
        assert inst.n == 3 and inst.m == 4

    def test_clique_variant(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--variant", "prop63", "--graph-n", "3",
                "--edges", "0-1,0-2,1-2", "--k", "3",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threshold"] == 1 + 2 * 3 + 2 * 3
        inst = parse_validate({k: v for k, v in doc.items() if k != "threshold"})
        assert inst.n == 1 + 3 + 3

    def test_binpacking_variant(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--variant", "thm58-path", "--items", "1,2,3",
                "--capacity", "3", "--bins", "2",
            ]
        )
        assert code == 0
        inst = parse_validate(json.loads(capsys.readouterr().out))
        assert inst.n == 4 and inst.m == 6

    def test_invalid_input_malformed(self, capsys):
        code = main(
            [
                "generate", "--variant", "thm58-path", "--items", "1,2,3",
                "--capacity", "4", "--bins", "2",
            ]
        )
        assert code == 2

    def test_unknown_variant(self, capsys):
        assert main(["generate", "--variant", "bogus"]) == 2

    def test_max_utility_beyond_64_bits(self, capsys):
        code = main(["generate", "--variant", "random", "--n", "2", "--m", "3",
                     "--max-utility", "99999999999999999999"])
        assert code == 2
        assert capsys.readouterr().err.strip() == \
            "error: utilities must fit in 64-bit integers"

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 103. GiB", "error: Unable to allocate 103. GiB"),
        ("", "error: out of memory"),
    ])
    def test_instance_too_large_to_build(self, monkeypatch, capsys, message, line):
        # README's thm44-fewres example (6,591 x 6,591) passes the size cap;
        # the builder is replaced by one that runs out of memory
        def too_large(inp, variant):
            raise MemoryError(message)

        monkeypatch.setattr(gefalloc.cli, "gen_from_clique", too_large)
        code = main(["generate", "--variant", "thm44-fewres", "--graph-n", "3",
                     "--edges", "0-1,0-2,1-2", "--k", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    @pytest.mark.parametrize("argv, shape", [
        # K4 with k = 3: the scale x is n * m = 24
        (["--variant", "thm44-outdeg2", "--graph-n", "4",
          "--edges", "0-1,0-2,0-3,1-2,1-3,2-3", "--k", "3"], (331_878, 331_851)),
        # k = 4 needs more than 6 edges: 5 + 7 agents, each guarded by 4**10
        # dummies, and 4**3 constraint agents; 4 + 6 + 4**4 resources
        (["--variant", "thm48", "--graph-n", "5",
          "--edges", "0-1,0-2,0-3,0-4,1-2,1-3,1-4", "--k", "4"], (12_582_988, 266)),
        (["--variant", "random", "--n", "10001", "--m", "10000"], (10_001, 10_000)),
    ])
    def test_size_cap_refuses_before_building(self, monkeypatch, capsys, argv, shape):
        """An instance over the cap exits 2 with one ``error:`` line, sized by
        arithmetic: no builder is called."""
        def unreachable(*args):
            raise AssertionError("the builder was called")

        for builder in ("gen_from_clique", "gen_from_binpacking", "gen_random"):
            monkeypatch.setattr(gefalloc.cli, builder, unreachable)
        assert main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        n, m = shape
        assert captured.out == ""
        assert captured.err == (f"error: {argv[1]} instance of {n:,} agents x {m:,} resources "
                                f"is over the cap of 100,000,000 utility cells\n")

    @pytest.mark.parametrize("argv, line", [
        # K8 has 28 edges, one more than k^3 at k = 3; its layout would be
        # 2,125,827 agents x 87 resources, over the cap as well
        (["--variant", "thm48", "--graph-n", "8", "--edges",
          ",".join(f"{u}-{v}" for u in range(8) for v in range(u + 1, 8)), "--k", "3"],
         "error: needs at most k^3 edges (one constraint agent each)"),
        (["--variant", "random", "--n", "10001", "--m", "10000", "--max-utility", "0"],
         "error: need n >= 1, m >= 0, max_utility >= 1"),
    ])
    def test_invalid_input_is_named_before_the_size_cap(self, monkeypatch, capsys, argv, line):
        """An input the family rejects gets the family's own message, even
        when its size would be over the cap too."""
        def unreachable(*args):
            raise AssertionError("the builder was called")

        for builder in ("gen_from_clique", "gen_random"):
            monkeypatch.setattr(gefalloc.cli, builder, unreachable)
        assert main(["generate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"


def child_env():
    """Environment of a child interpreter that imports the package this test
    imported, installed or not."""
    src = os.path.dirname(os.path.dirname(gefalloc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "gefalloc.cli", "--help"],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "solve" in out.stdout


BASE = {
    "agents": ["a", "b"],
    "resources": ["x", "y"],
    "utilities": [[1, 2], [2, 1]],
    "arcs": [["a", "b"]],
}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _strings(v):
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _with(field, value):
    doc = json.loads(json.dumps(BASE))
    doc[field] = value
    return doc


def _cell(r, c, value):
    doc = json.loads(json.dumps(BASE))
    doc["utilities"][r][c] = value
    return doc


# every document drawn here breaks one rule of the instance format
BAD_INSTANCE = st.one_of(
    JSON.filter(lambda v: not isinstance(v, dict)),
    st.sampled_from(list(BASE)).map(lambda f: {k: v for k, v in BASE.items() if k != f}),
    st.tuples(st.sampled_from(["agents", "resources"]),
              JSON.filter(lambda v: not _strings(v))).map(lambda fv: _with(*fv)),
    st.just(_with("agents", ["a", "a"])),
    st.just(_with("resources", ["x", "x"])),
    JSON.filter(lambda v: not (isinstance(v, list) and all(isinstance(r, list) for r in v)))
    .map(lambda v: _with("utilities", v)),
    st.tuples(st.integers(0, 1), st.integers(0, 1),
              JSON.filter(lambda v: type(v) is not int)
              | st.integers(max_value=-1) | st.integers(min_value=2**62))
    .map(lambda rcv: _cell(*rcv)),
    st.sampled_from([[[1, 2, 3], [2, 1]], [[1], [2, 1]], [[1, 2]], [[1, 2]] * 3])
    .map(lambda u: _with("utilities", u)),
    JSON.filter(lambda v: not isinstance(v, list)).map(lambda v: _with("arcs", v)),
    JSON.filter(lambda v: not (isinstance(v, list) and len(v) == 2 and _strings(v)
                               and set(v) <= {"a", "b"}))
    .map(lambda v: _with("arcs", [v])),
    st.sampled_from([[["a", "a"]], [["a", "b"], ["a", "b"]]])
    .map(lambda arcs: _with("arcs", arcs)),
)
# every document drawn here breaks one rule of the allocation format
BAD_ALLOCATION = st.one_of(
    JSON.filter(lambda v: not isinstance(v, dict)),
    st.dictionaries(st.text(max_size=3).filter(lambda k: k != "assignment"),
                    JSON, max_size=2),
    JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: {"assignment": v}),
    st.text(max_size=3).filter(lambda r: r not in BASE["resources"])
    .map(lambda r: {"assignment": {r: "a"}}),
    JSON.filter(lambda v: v not in BASE["agents"])
    .map(lambda a: {"assignment": {"x": a}}),
)
NOT_JSON = st.binary(max_size=12).filter(lambda b: not _parses(b))


def _parses(raw):
    try:
        json.loads(raw.decode("utf-8"))
    except ValueError:
        return False
    return True


def _exits_malformed(command, *docs):
    """Run ``command`` on the documents, written to files: it must exit 2
    with an ``error:`` line, and no exception may escape."""
    with tempfile.TemporaryDirectory() as folder:
        paths = []
        for i, doc in enumerate(docs):
            path = os.path.join(folder, f"{i}.json")
            with open(path, "wb") as fh:
                fh.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
            paths.append(path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, *paths])
    assert code == 2, (command, docs)
    assert err.getvalue().startswith("error: "), err.getvalue()


class TestMalformedFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=BAD_INSTANCE | NOT_JSON, command=st.sampled_from(["solve", "verify"]))
    def test_malformed_instance(self, doc, command):
        alloc = {"assignment": {"x": "a", "y": "b"}}
        _exits_malformed(command, *((doc,) if command == "solve" else (doc, alloc)))

    @settings(max_examples=100, deadline=None)
    @given(doc=BAD_ALLOCATION | NOT_JSON)
    def test_malformed_allocation(self, doc):
        _exits_malformed("verify", BASE, doc)


# cell texts json.loads rejects, or reads as something other than an int64
# grid cell, or reads at the edge of the grid reader's range
ODD_CELLS = st.sampled_from([
    "true", "false", "null", "1.5", "1.0", "1e3", "01", "00", "-01", "-0", "--1",
    "-", "+1", "1 2", "1\n2", "- 1", "1-2", '"1"', "", "[1]", "[]", "NaN", "0x1",
    "9" * 18, "-" + "9" * 18, "1" + "0" * 18, "9" * 19, "-" + "9" * 19, "9" * 20,
])
CELLS = st.one_of(st.integers(0, 300), st.integers(-2, 10**18 - 1)).map(str)
# text spliced into a document at a random place
SPLICES = st.sampled_from([
    " ", "\t", "\r\n", "\x0b", "\u00a0", ",", "[", "]", "-", "0", "7", "e", ".", '"', "}",
])
# keys added to the document's object
EXTRA_KEYS = st.sampled_from([
    '"utilities": [[1, 2], [3, 4]]', '"utilities": [[5]]', '"utilities": "[[1]]"',
    '"note": {"utilities": [[1, 2], [3, 4]]}', '"note": "[[1, 2], [3, 4]]"',
    '"utilities": [[1, 2], [3, 4]], "utilities": [[0, 1], [1, 0]]',
])
TRAILERS = st.sampled_from(["", "\n", " x", "{}", "]", ", 1", "\n\n  "])


def _rarely(strategy, default, odds=3):
    """``default`` about ``odds`` times out of ``odds + 1``, else a draw of
    ``strategy``."""
    return st.one_of(*[st.just(default)] * odds, strategy)


@st.composite
def grid_documents(draw):
    """The text of an instance document, in the compact, the default or
    ``generate``'s layout; a cell, the rows' lengths, the agents, the keys
    or the text itself may be mutated, each now and then."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(CELLS) for _ in range(m)] for _ in range(n)]
    odd = draw(_rarely(ODD_CELLS, None, odds=1))
    if odd is not None:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = odd
    shape = draw(_rarely(st.sampled_from(["short", "long", "[]", "[[]]", "+[]"]), None, 9))
    if shape in ("short", "long"):
        row = rows[draw(st.integers(0, n - 1))]
        row[:] = row[:-1] if shape == "short" else row + ["1"]
    elif shape is not None:
        rows = {"[]": [], "[[]]": [[]], "+[]": rows + [[]]}[shape]
    agents = [f"a{i}" for i in range(n + draw(_rarely(st.sampled_from([-1, 1]), 0, 7)))]
    names = st.sampled_from(agents or ["z"])
    arcs = draw(st.lists(st.tuples(names, names).map(list), max_size=3))
    head = {"agents": agents, "resources": [f"r{j}" for j in range(m)], "arcs": arcs}
    layout = draw(st.sampled_from(["compact", "default", "generate"]))
    item = "," if layout == "compact" else ", "
    text = json.dumps({**head, "utilities": "GRID"}, sort_keys=layout == "generate",
                      separators=(item, ":" if layout == "compact" else ": "),
                      indent=2 if layout == "generate" else None)
    lines = ("[" + item.join(row) + "]" for row in rows)
    grid = ("[\n    " + ",\n    ".join(lines) + "\n  ]" if layout == "generate"
            else "[" + item.join(lines) + "]")
    text = text.replace('"GRID"', grid)
    extra = draw(_rarely(EXTRA_KEYS, None))
    if extra is not None:
        text = "{" + extra + item + text[1:]
    for _ in range(draw(_rarely(st.integers(1, 2), 0))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(SPLICES) + text[at + draw(st.integers(0, 1)):]
    return text + draw(_rarely(TRAILERS, ""))


def _outcome(read):
    """What ``parse_validate`` makes of the document ``read()`` returns: the
    instance's fields, or the type and message of what was raised."""
    try:
        inst = parse_validate(read())
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)
    return (inst.agents, inst.resources, inst.utilities.tolist(),
            inst.utilities.dtype, inst.arcs.tolist())


def _one_odd_cell(cell):
    """A compact instance document whose grid holds ``cell``."""
    return ('{"agents":["a0","a1"],"resources":["r0","r1"],"arcs":[["a0","a1"]],'
            f'"utilities":[[1,{cell}],[2,3]]}}')


def _signed_grid_text(layout: str) -> str:
    """An instance document in the compact or ``generate``'s layout whose
    grid holds cells of every digit count from 1 to 18, of both signs, and
    ``-0``.  Row r's cells have at most 1 + 17r/59 digits, so the longest
    cell grows from one block of the grid reader to the next."""
    rng = random.Random(7)
    n, m = 60, 600
    rows = []
    for r in range(n):
        top = 1 + 17 * r // (n - 1)
        kinds = [(sign, d) for d in range(1, top + 1) for sign in ("", "-")]
        kinds += [(rng.choice(["", "-"]), rng.randint(1, top)) for _ in range(m - len(kinds))]
        row = [sign + str(rng.randrange(10 ** (d - 1) if d > 1 else 0, 10 ** d))
               for sign, d in kinds]
        row[rng.randrange(m)] = "-0"
        rows.append(row)
    agents = json.dumps([f"a{i}" for i in range(n)])
    resources = json.dumps([f"r{j}" for j in range(m)])
    if layout == "compact":
        grid = ",".join("[" + ",".join(row) + "]" for row in rows)
        return f'{{"agents":{agents},"resources":{resources},"arcs":[],"utilities":[{grid}]}}'
    grid = ",\n    ".join("[" + ", ".join(row) + "]" for row in rows)
    return (f'{{\n  "agents": {agents},\n  "arcs": [],\n  "resources": {resources},\n'
            f'  "utilities": [\n    {grid}\n  ]\n}}\n')


class TestGridReader:
    @settings(max_examples=300, deadline=None)
    @given(text=grid_documents())
    @example(text=_one_odd_cell("01"))
    @example(text=_one_odd_cell("1 2"))
    @example(text=_one_odd_cell("9" * 19))
    def test_reads_as_json_loads(self, text):
        """``_load_json`` with its grid reader and ``json.loads`` give
        ``parse_validate`` documents with one outcome: equal instances, or
        the same exception and message."""
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "i.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            got = _outcome(lambda: gefalloc.cli._load_json(path))
            with open(path, encoding="utf-8") as fh:  # newlines read as the CLI reads them
                assert got == _outcome(lambda: json.load(fh)), text

    @pytest.mark.parametrize("layout", ["compact", "generate"])
    def test_benchmark_and_generate_layouts_take_the_grid_reader(self, tmp_path, layout):
        """The benchmark's compact files and ``generate``'s files, one row a
        line, are read by the grid reader, not by ``json.loads``; 300 rows of
        1,000 cells span several blocks."""
        util = np.random.default_rng(1).integers(0, 10**6, (300, 1000))
        inst = Instance([f"a{i}" for i in range(300)], [f"r{j}" for j in range(1000)],
                        util, [(0, 1), (2, 1)])
        path = tmp_path / "i.json"
        if layout == "compact":
            path.write_text(json.dumps(inst.to_document(), separators=(",", ":")))
        else:
            gefalloc.cli._dump_instance(inst, str(path))
        assert path.stat().st_size > 3 * gefalloc.cli._GRID_BLOCK
        doc = gefalloc.cli._load_json(str(path))
        assert isinstance(doc["utilities"], np.ndarray)
        assert parse_validate(doc) == inst

    @pytest.mark.parametrize("layout", ["compact", "generate"])
    def test_grid_array_is_json_loads_array(self, tmp_path, layout):
        """The grid reader's array is ``json.loads``'s grid as int64: the
        same values, shape and dtype, negative cells and ``-0`` included,
        which ``parse_validate`` would reject before comparing them."""
        text = _signed_grid_text(layout)
        path = tmp_path / "i.json"
        path.write_text(text)
        assert path.stat().st_size > 3 * gefalloc.cli._GRID_BLOCK
        got = gefalloc.cli._load_json(str(path))["utilities"]
        want = np.array(json.loads(text)["utilities"], dtype=np.int64)
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_grid_read_in_bounded_blocks(self, tmp_path):
        """A 100 x 5,000 grid is read with no more memory than its int64
        array and the file's text, plus a fixed allowance for the block in
        hand."""
        util = np.random.default_rng(2).integers(0, 4, (100, 5000))
        doc = {"agents": [f"a{i}" for i in range(100)],
               "resources": [f"r{j}" for j in range(5000)],
               "utilities": util.tolist(), "arcs": []}
        path = tmp_path / "i.json"
        path.write_text(json.dumps(doc, separators=(",", ":")))
        tracemalloc.start()
        try:
            got = gefalloc.cli._load_json(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got["utilities"], util)
        assert peak < util.size * 8 + path.stat().st_size + (4 << 20)
