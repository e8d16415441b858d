"""Regenerate perfbench/pool.json: the fixed small instances of the
hard-scan and routed-mix workloads, each stored with its reference answer.

References come from tests/oracle.py (plain enumeration written against the
problem statement), never from the solvers under test.  The benchmark itself
only reads the stored file, so this script runs once, from the repository
root:

    python3 perfbench/make_pool.py

It takes under a minute; the n=4, m=8 welfare reference alone enumerates
390k partial allocations in pure Python.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracle  # noqa: E402
from gefalloc import GraphKind, PreferenceKind, gen_random  # noqa: E402

SHAPES = {
    "acyclic": GraphKind.ACYCLIC,
    "scc": GraphKind.STRONGLY_CONNECTED,
    "any": None,
}
NOTIONS = ("weak", "strict")
GOALS = ("complete", "welfare", "pareto")
PER_COMBO = 5

# Largest enumeration each goal may need, for the oracle and for the brute
# force routes alike.  Uncapped routed-mix draws reached seconds per solve.
CAPS = {"complete": 20_000, "welfare": 20_000, "pareto": 2_500}


def _space(n: int, m: int, goal: str) -> int:
    return n**m if goal == "complete" else (n + 1) ** m


def frontier(util, n, m):
    """Undominated distinct utility profiles over all partial allocations."""
    profiles = {
        oracle.profile(util, asg) for asg in oracle.all_partial_assignments(n, m)
    }
    return sorted(
        p
        for p in profiles
        if not any(
            q != p and all(x >= y for x, y in zip(q, p)) for q in profiles
        )
    )


def reference(util, arcs, notion: str, goal: str) -> dict:
    strict = notion == "strict"
    n, m = len(util), len(util[0])
    if goal == "complete":
        ok = oracle.exists_fair_complete(util, arcs, strict)
        return {"verdict": "feasible" if ok else "infeasible"}
    if goal == "welfare":
        best = oracle.max_fair_welfare(util, arcs, strict)
        if best is None:
            return {"verdict": "infeasible"}
        return {"verdict": "feasible", "welfare": best}
    front = frontier(util, n, m)
    front_set = set(front)
    ok = any(
        oracle.profile(util, asg) in front_set
        for asg in oracle.all_partial_assignments(n, m)
        if oracle.fair(util, arcs, asg, strict)
    )
    return {
        "verdict": "feasible" if ok else "infeasible",
        "frontier": [list(p) for p in front],
    }


def entry(case_id, inst, notion, goal) -> dict:
    util, arcs = oracle.instance_args(inst)
    return {
        "id": case_id,
        "notion": notion,
        "goal": goal,
        "utilities": util,
        "arcs": [list(a) for a in arcs],
        "expect": reference(util, arcs, notion, goal),
    }


def routed_mix(rng: random.Random) -> list[dict]:
    out = []
    for kind in PreferenceKind:
        for shape_name, shape in SHAPES.items():
            for notion in NOTIONS:
                for goal in GOALS:
                    for i in range(PER_COMBO):
                        while True:
                            n, m = rng.randint(3, 6), rng.randint(4, 8)
                            if _space(n, m, goal) <= CAPS[goal]:
                                break
                        inst = gen_random(
                            n, m, kind, shape, rng.choice((3, 9)), rng.randrange(10**9)
                        )
                        cid = f"rm-{kind.value}-{shape_name}-{notion}-{goal}-{i}"
                        out.append(entry(cid, inst, notion, goal))
    # the identical-preference strict closed form needs more distinct
    # positive values than agents, which the draws above rarely produce
    for i in range(PER_COMBO):
        while True:
            n, m = rng.randint(3, 5), rng.randint(6, 8)
            inst = gen_random(
                n, m, PreferenceKind.IDENTICAL, GraphKind.ACYCLIC, 12,
                rng.randrange(10**9),
            )
            values = {int(v) for v in inst.utilities[0] if v > 0}
            if len(values) > n and _space(n, m, "complete") <= CAPS["complete"]:
                break
        out.append(entry(f"rm-manyvalues-{i}", inst, "strict", "complete"))
    return out


def hard_scan(rng: random.Random) -> list[dict]:
    out = []
    # Pareto scans: brute force only (weak needs a cyclic graph, else alg2)
    for i, m in enumerate((6,) * 12 + (7,)):
        notion = NOTIONS[i % 2]
        shape = GraphKind.STRONGLY_CONNECTED if notion == "weak" else None
        inst = gen_random(3, m, PreferenceKind.GENERAL, shape, 3, rng.randrange(10**9))
        out.append(entry(f"hs-pareto-3x{m}-{i}", inst, notion, "pareto"))
    # welfare scans: the mode-1 kernel
    for i, m in enumerate((7,) * 13 + (8,)):
        notion = NOTIONS[i % 2]
        inst = gen_random(4, m, PreferenceKind.GENERAL, None, 3, rng.randrange(10**9))
        out.append(entry(f"hs-welfare-4x{m}-{i}", inst, notion, "welfare"))
    return out


def main() -> None:
    rng = random.Random(20201123)
    pool = {"routed-mix": routed_mix(rng), "hard-scan": hard_scan(rng)}
    path = Path(__file__).resolve().parent / "pool.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}: " + ", ".join(f"{k} {len(v)}" for k, v in pool.items()))


if __name__ == "__main__":
    main()
