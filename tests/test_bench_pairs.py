import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "solve_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "solves_per_s", "better": "higher", "bound": 0.25},
]


def runs(**values):
    """Paired runs' metric dicts from per-metric value lists."""
    count = len(next(iter(values.values())))
    return [{name: {"value": vals[i]} for name, vals in values.items()} for i in range(count)]


def row(rows, name):
    return next(r for r in rows if r["name"] == name)


def test_claim_needs_nine_of_ten_wins_and_a_gap_over_the_parents_spread():
    parent = [0.140, 0.136, 0.141, 0.139, 0.138, 0.140, 0.137, 0.141, 0.139, 0.140]
    faster = [p - 0.015 for p in parent]
    rows = bench_pairs.summarize(METRICS, runs(solve_p50_ms=parent, solves_per_s=parent),
                                 runs(solve_p50_ms=faster, solves_per_s=faster))
    p50 = row(rows, "solve_p50_ms")
    assert (p50["wins"], p50["pairs"], p50["claim"], p50["within_bound"]) == (10, 10, True, True)
    assert p50["parent"][1] == pytest.approx(0.1395)
    assert p50["change"][1] == pytest.approx(0.1245)
    # the same numbers are a loss where higher is better
    per_s = row(rows, "solves_per_s")
    assert (per_s["wins"], per_s["claim"], per_s["within_bound"]) == (0, False, True)

    # eight wins of ten are not a claim, however large the gap
    mixed = faster[:8] + [p + 0.001 for p in parent[8:]]
    p50 = row(bench_pairs.summarize(METRICS, runs(solve_p50_ms=parent, solves_per_s=parent),
                                    runs(solve_p50_ms=mixed, solves_per_s=parent)),
              "solve_p50_ms")
    assert (p50["wins"], p50["claim"]) == (8, False)

    # ten wins by less than the parent's interquartile distance are not either
    close = [p - 0.001 for p in parent]
    p50 = row(bench_pairs.summarize(METRICS, runs(solve_p50_ms=parent, solves_per_s=parent),
                                    runs(solve_p50_ms=close, solves_per_s=parent)),
              "solve_p50_ms")
    assert (p50["wins"], p50["claim"]) == (10, False)


def test_bound_is_a_share_of_the_parents_median():
    parent = [1.0, 1.0, 1.0, 1.0]
    for slower, within in ((1.24, True), (1.26, False)):
        rows = bench_pairs.summarize(METRICS, runs(solve_p50_ms=parent, solves_per_s=parent),
                                     runs(solve_p50_ms=[slower] * 4,
                                          solves_per_s=[2 - slower] * 4))
        assert [r["within_bound"] for r in rows] == [within, within]
        assert [r["wins"] for r in rows] == [0, 0]


def test_single_pair_has_no_spread():
    rows = bench_pairs.summarize(METRICS[:1], runs(solve_p50_ms=[2.0]),
                                 runs(solve_p50_ms=[1.0]))
    assert rows[0]["parent"] == (2.0, 2.0, 2.0)
    assert (rows[0]["wins"], rows[0]["claim"]) == (1, True)


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [0.10, 0.15, 0.20, 0.12, 0.18]
    rows = bench_pairs.summarize(METRICS[:1], runs(solve_p50_ms=parent),
                                 runs(solve_p50_ms=[p * 1.01 for p in parent]))
    assert rows[0]["unresolved"] and bench_pairs.verdict(rows[0]) == "unresolved"
    # unless every run of the change reads better than every run of the parent
    rows = bench_pairs.summarize(METRICS[:1], runs(solve_p50_ms=parent),
                                 runs(solve_p50_ms=[0.05] * 5))
    assert not rows[0]["unresolved"] and bench_pairs.verdict(rows[0]) == "within"
