"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import math
from pathlib import Path

import gefalloc
import pytest

import run
import tracer
import workloads


def _snapshot(build_dir, workload, seed):
    cases = workloads.build(gefalloc, workload, seed, build_dir)
    return [
        (c.id, c.inst.to_document(), c.notion, c.goal, c.expect,
         Path(c.path).read_text() if c.path else None)
        for c in cases
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_is_deterministic_per_seed(tmp_path, workload):
    first = _snapshot(tmp_path, workload, 11)
    assert _snapshot(tmp_path, workload, 11) == first
    assert _snapshot(tmp_path, workload, 12) != first


def _attributes():
    return {
        (mod.__name__, name): value
        for mod in tracer.package_modules()
        for name, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_wrapped_attribute():
    import gefalloc.cli  # noqa: F401  - the CLI module is traced too

    before = _attributes()
    inst = gefalloc.gen_random(3, 4, gefalloc.PreferenceKind.GENERAL, None, 3, 5)
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            assert gefalloc.dispatch.solve_ilp is not before[("gefalloc.dispatch", "solve_ilp")]
            assert gefalloc._kernels.search is not before[("gefalloc._kernels", "search")]
            gefalloc.solve(inst, gefalloc.FairnessNotion.WEAK, gefalloc.EfficiencyGoal.MAX_WELFARE)
            raise RuntimeError("leave the block early")
    assert tr.spans and not tr.missing
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_routed_mix_runs_every_named_route(tmp_path):
    cases = workloads.build(gefalloc, "routed-mix", 3, tmp_path)
    with tracer.Tracer() as tr:
        _, passes, failures = run.measure(gefalloc, cases, run.solve_library, workloads.check,
                                          math.inf, 1, max_passes=1, tracer=tr)
    assert failures == []
    _, _, routes = tracer.summarize(tr, 1, len(cases), sum(passes), sum(passes))
    named = set(gefalloc.ALGORITHMS) - {"auto"} | {"manyvalues", "immediate-infeasible"}
    assert set(tracer.ROUTES) == named
    assert {r for r, count in routes.items() if count > 0} == named


def test_checks_catch_wrong_answers(tmp_path):
    cases = workloads.build(gefalloc, "hard-scan", 1, tmp_path)
    welfare = next(c for c in cases if c.goal == "welfare" and "welfare" in c.expect)
    res = gefalloc.solve(welfare.inst, gefalloc.FairnessNotion(welfare.notion),
                         gefalloc.EfficiencyGoal.MAX_WELFARE)
    good = workloads.Outcome("feasible", res.welfare, res.allocation.assignment)
    assert workloads.check(gefalloc, welfare, good) is None
    flipped = workloads.Outcome("infeasible")
    assert workloads.check(gefalloc, welfare, flipped)[0] == "wrong_verdict"
    less = dict(res.allocation.assignment)
    less.pop(next(r for r, a in less.items() if welfare.inst.utilities[a, r] > 0))
    worse = workloads.Outcome("feasible", res.welfare, less)
    assert workloads.check(gefalloc, welfare, worse)[0] == "bad_witness"
    assert workloads.check(gefalloc, welfare, workloads.Outcome("budget"))[0] == "budget"
