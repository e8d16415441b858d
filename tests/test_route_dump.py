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
