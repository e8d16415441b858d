import hashlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "route_dump.py"
spec = importlib.util.spec_from_file_location("route_dump", TOOL)
route_dump = importlib.util.module_from_spec(spec)
spec.loader.exec_module(route_dump)

OLD = """\
i0 analysis general 3 acyclic 0 1 - 0 0,1
i0 strict welfare auto brute feasible 3 81 0,1,0,0
i0 strict welfare ilp ilp->brute infeasible 0 90 -
i0 strict welfare brute brute feasible 3 81 0,1,0,0
i0 weak complete auto ilp feasible 9 16 1,1,0,0
i1 strict welfare alg1 alg1->brute infeasible 0 16 -
"""

NEW = """\
i0 analysis general 3 acyclic 0 1 - 0 0,1
i0 strict welfare auto brute feasible 3 9 0,1,0,0
i0 strict welfare ilp ilp infeasible 0 9 -
i0 strict welfare brute brute feasible 3 81 0,1,0,0
i0 weak complete auto brute feasible 5 3 0,0,1,0
i2 weak pareto auto alg2 feasible 1 0 0
"""


def test_compare_groups_by_algorithm_route_change_and_fields(tmp_path, capsys):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(OLD)
    new.write_text(NEW)
    groups = route_dump.compare(route_dump.read_dump(old), route_dump.read_dump(new))
    assert groups == {
        ("auto", "brute", "nodes"): 1,
        ("ilp", "ilp->brute => ilp", "nodes"): 1,
        ("auto", "ilp => brute", "welfare,nodes,witness"): 1,
        ("alg1", "-", "removed"): 1,
        ("auto", "-", "added"): 1,
    }
    route_dump.main(["--compare", str(old), str(new)])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "5 of 6 lines differ (6 before)"
    assert len(out) == 6


def test_compare_runs_without_the_package_on_the_path(tmp_path):
    """``--compare`` reads two files only, so it runs where ``gefalloc``
    cannot be imported."""
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(OLD)
    new.write_text(NEW)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(TOOL), "--compare", str(old), str(new)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "5 of 6 lines differ (6 before)"


def test_dump_stores_instances_in_every_width():
    """The dump's instances store their utilities in each of the four
    integer types, so comparing two dumps covers every width."""
    instances = [inst for _, inst in route_dump.corpus()]
    instances += [inst for _, inst, _ in route_dump.scan_corpus()]
    widths = Counter(inst.utilities.dtype.name for inst in instances)
    assert set(widths) == {"int8", "int16", "int32", "int64"}, widths


# The families the pinned slice runs, and the sha256 of their answer
# fields (``answer_digests``), taken before the count-space search became a
# kernel scan.  A pinned line may change only from BUDGET to an answer that
# forced ``brute`` confirms at a budget large enough to finish.  Re-pinned
# when the kernel's budget came to count work: 56 welfare lines of ``scan``
# and ``wide-scan`` went from BUDGET to the answer forced ``brute`` gives at
# a budget of 10^12 positions under the old count.  ``case5-big`` joined
# the slice once its forced ``ilp`` solves took milliseconds instead of
# seconds, pinned as the scan answers at the dump's budget.
PINNED_FAMILIES = ("rand", "wide", "scan", "wide-scan", "pareto-walk", "case5-big")
PINNED = {
    "rand": "01ef9af93d799bcc682cddd7e0f279b37de1f9f5df3c738c8f0cc8473c8a72c7",
    "wide": "6ef3f7c160ddd2c7e734e21db20aa07a94f16016e3a7112ca2b66d7bf5e412ef",
    "scan": "599ae9ab252ec5d905666f74598e84d13c9101f12c6e22c114ab2b9c60308fc1",
    "wide-scan": "547a79bea18c8bd8da695d5b91c86a2bb861d0f12809c36aa189b2f77bc4189f",
    "pareto-walk": "a9ce2cbbd664f653bfa9e792251d85c627e1fba515498217536d2f3999f6e933",
    "case5-big": "893e4a3161af094690fe174d5a8c11d25691640be784bcaf381ca4ec8870bab0",
}


def answer_fields(fields):
    """The pinned fields of one solve line: status, welfare and witness for
    a forced route, status and welfare for auto; ``None`` for an analysis
    line.  ``nodes`` and ``route`` are not pinned."""
    if fields[1] == "analysis":
        return None
    name, notion, goal, algo, route, status, welfare, nodes, witness = fields
    kept = [name, notion, goal, algo, status, welfare]
    return kept + ([witness] if algo != "auto" else [])


def answer_digests(families):
    """Per family, the sha256 of the pinned fields of its solve lines."""
    digests = {family: hashlib.sha256() for family in families}
    for fields in route_dump.lines(families):
        kept = answer_fields(fields)
        if kept is not None:
            digests[fields[0].rsplit("-", 1)[0]].update((" ".join(kept) + "\n").encode())
    return {family: d.hexdigest() for family, d in digests.items()}


def test_pinned_answers():
    """Every status, welfare and forced witness of the pinned slice of the
    route dump is the pinned one."""
    assert answer_digests(PINNED_FAMILIES) == PINNED
