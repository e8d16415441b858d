"""Seeded corpora of the three workloads and the checks of their answers.

Every case carries its expected answer, taken from a source that shares no
code with the solvers under test:

* small random instances: ``pool.json``, whose answers ``make_pool.py``
  computed with ``tests/oracle.py``; a seed relabels agents and resources,
  which changes no verdict, no optimal welfare and, up to the relabelling,
  no Pareto frontier;
* prop63 clique reductions: ``clique_oracle`` on the input graph;
* bin-packing reductions: ``find_packing`` on the input items;
* closed-form families: the construction fixes the verdict.

A seed fixes every input; the same seed gives the same corpus.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hard-scan", "routed-mix", "closed-form-large")


@dataclass
class Case:
    id: str
    inst: object          # gefalloc.Instance
    notion: str
    goal: str
    expect: dict
    path: Optional[str] = None   # instance file, for cases solved through the CLI


@dataclass
class Outcome:
    status: str                  # feasible / infeasible / budget / exception
    welfare: int = 0
    assignment: Optional[dict] = None
    detail: str = ""


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


# ---------------------------------------------------------------------------
# pool instances (hard-scan scans, routed-mix draws)


def load_pool(workload: str) -> list[dict]:
    with open(HERE / "pool.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _relabelled(gf, entry: dict, rng: random.Random) -> Case:
    util = np.asarray(entry["utilities"], dtype=np.int64)
    n, m = util.shape
    p = list(range(n))   # new agent i is old agent p[i]
    q = list(range(m))
    rng.shuffle(p)
    rng.shuffle(q)
    pinv = {old: new for new, old in enumerate(p)}
    arcs = [(pinv[a], pinv[b]) for a, b in entry["arcs"]]
    expect = dict(entry["expect"])
    if "frontier" in expect:
        expect["frontier"] = [[prof[p[i]] for i in range(n)] for prof in expect["frontier"]]
    inst = gf.Instance(_names("a", n), _names("r", m), util[p][:, q], arcs)
    return Case(entry["id"], inst, entry["notion"], entry["goal"], expect)


# ---------------------------------------------------------------------------
# generated reduction instances


# (vertices, edges, k): k=2 slots always hold a clique; the k=3 slot is a
# two-edge graph on three vertices, so it never does.  Scans visit 65k to
# 823k kernel nodes.
PROP63_SLOTS = ((6, 8, 2), (6, 10, 2), (7, 10, 2), (7, 12, 2), (3, 2, 3))


def _prop63_cases(gf, rng: random.Random) -> list[Case]:
    out = []
    for i, (nv, ne, k) in enumerate(PROP63_SLOTS):
        edges = tuple(sorted(rng.sample(list(itertools.combinations(range(nv), 2)), ne)))
        inst, threshold = gf.gen_from_clique(gf.CliqueInput(nv, edges, k), "prop63")
        # the empty allocation is weakly fair, so the verdict is always feasible
        expect = {"verdict": "feasible", "clique": gf.clique_oracle(nv, edges, k),
                  "threshold": threshold}
        out.append(Case(f"prop63-{nv}v{ne}e-k{k}-{i}", inst, "weak", "welfare", expect))
    return out


def _composition(rng: random.Random, total: int) -> tuple[int, ...]:
    parts = rng.randint(2, min(4, total))
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def _binpacking_cases(gf, rng: random.Random) -> list[Case]:
    """Two packable and two unpackable inputs per strict reduction; two bins,
    capacity at most 3 (prop53 at most 2), keeps each solve under ~30 ms."""
    out = []
    for variant in gf.generators.BINPACKING_VARIANTS:
        for packable in (True, False, True, False):
            cap = 2 if variant == "prop53" else rng.choice((2, 3))
            while True:
                sizes = _composition(rng, 2 * cap)
                if (gf.find_packing(sizes, 2, cap) is not None) == packable:
                    break
            inst = gf.gen_from_binpacking(gf.BinPackingInput(sizes, cap, 2), variant)
            verdict = "feasible" if packable else "infeasible"
            cid = f"{variant}-{'-'.join(map(str, sizes))}-cap{cap}-{len(out)}"
            out.append(Case(cid, inst, "strict", "complete", {"verdict": verdict}))
    return out


# ---------------------------------------------------------------------------
# closed-form families, solved through the CLI on files written at set-up


def _dag_arcs(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    order = rng.permutation(n)
    arcs = set()
    for i in range(n - 1):
        ahead = np.arange(i + 1, min(n, i + 9))
        for j in rng.choice(ahead, size=min(2, len(ahead)), replace=False):
            arcs.add((int(order[i]), int(order[j])))
    return sorted(arcs)


def _scc_arcs(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    order = rng.permutation(n)
    arcs = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    while len(arcs) < 2 * n:
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            arcs.add((a, b))
    return sorted(arcs)


def _layered_arcs(rng: np.random.Generator, layers: int, width: int):
    """Every agent outside the last layer watches one or two agents of the
    next layer, so the longest path from a layer-i agent has layers-1-i arcs."""
    order = rng.permutation(layers * width)
    arcs = set()
    for layer in range(layers - 1):
        for x in range(width):
            a = order[layer * width + x]
            for y in rng.choice(width, size=int(rng.integers(1, 3)), replace=False):
                arcs.add((int(a), int(order[(layer + 1) * width + y])))
    labels = width * layers * (layers - 1) // 2
    return sorted(arcs), labels


def _zero_one_row(rng: np.random.Generator, m: int, ones: int) -> np.ndarray:
    row = np.zeros(m, dtype=np.int64)
    row[rng.choice(m, size=ones, replace=False)] = 1
    return row


def _closed_form(rng: np.random.Generator, family: str, n: int, m: int):
    """(utilities, arcs, notion, goal, expected verdict) of one family."""
    if family == "dag":  # weak, acyclic: a source can take everything
        return rng.integers(0, 4, (n, m)), _dag_arcs(rng, n), "weak", "complete", "feasible"
    if family.startswith("alg1"):  # strict, identical 0/1, acyclic
        arcs, labels = _layered_arcs(rng, 20, n // 20)
        feasible = family == "alg1-feasible"
        ones = int(rng.integers(labels, m + 1)) if feasible else labels - 1
        row = _zero_one_row(rng, m, ones)
        verdict = "feasible" if feasible else "infeasible"
        return np.tile(row, (n, 1)), arcs, "strict", "complete", verdict
    if family.startswith("scc-id01"):  # weak, identical 0/1, strongly connected
        ones = n * int(rng.integers(m // (2 * n), m // n + 1))
        feasible = family == "scc-id01-feasible"
        if not feasible:
            ones -= int(rng.integers(1, n))
        row = _zero_one_row(rng, m, ones)
        verdict = "feasible" if feasible else "infeasible"
        return np.tile(row, (n, 1)), _scc_arcs(rng, n), "weak", "complete", verdict
    if family == "manyvalues":  # strict, identical, acyclic, > n distinct values
        row = rng.integers(1, 4 * n + 1, m)
        row[: n + 1] = rng.choice(np.arange(1, 4 * n + 1), size=n + 1, replace=False)
        row = rng.permutation(row)
        return np.tile(row, (n, 1)), _dag_arcs(rng, n), "strict", "complete", "feasible"
    if family == "immediate-infeasible":  # strict, identical, cyclic
        row = rng.integers(0, 6, m)
        row[0] = 5
        return np.tile(row, (n, 1)), _scc_arcs(rng, n), "strict", "complete", "infeasible"
    if family == "alg2":  # weak Pareto on a DAG: always has a fair efficient answer
        util = rng.integers(0, 4, (n, m))
        util[0, 0], util[1, 0] = 3, 0  # general, not identical, not 0/1
        return util, _dag_arcs(rng, n), "weak", "pareto", "feasible"
    raise ValueError(family)


# (family, agents, resources).  Sizes stay near the bottom of n 100-200,
# m 5k-20k so a run affords 100 CLI solves; alg2 is quadratic in m.
CLOSED_FORM_SLOTS = (
    ("dag", 100, 5000),
    ("dag", 200, 10000),
    ("alg1-feasible", 100, 5000),
    ("alg1-infeasible", 120, 5000),
    ("scc-id01-feasible", 100, 5000),
    ("scc-id01-infeasible", 100, 6000),
    ("manyvalues", 100, 5000),
    ("immediate-infeasible", 150, 6000),
    ("alg2", 100, 1500),
    ("alg2", 120, 1200),
)


def _closed_form_cases(gf, seed: int, workdir: Path) -> list[Case]:
    rng = np.random.default_rng(seed)
    out = []
    for i, (family, n, m) in enumerate(CLOSED_FORM_SLOTS):
        util, arcs, notion, goal, verdict = _closed_form(rng, family, n, m)
        agents, resources = _names("a", n), _names("r", m)
        doc = {
            "agents": agents,
            "resources": resources,
            "utilities": util.tolist(),
            "arcs": [[agents[a], agents[b]] for a, b in arcs],
        }
        path = workdir / f"{i:02d}-{family}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        inst = gf.Instance(agents, resources, util, arcs)
        out.append(Case(f"{family}-{n}x{m}-{i}", inst, notion, goal,
                        {"verdict": verdict}, str(path)))
    return out


# ---------------------------------------------------------------------------


def build(gf, workload: str, seed: int, workdir: Path) -> list[Case]:
    """The corpus of one workload, in the seeded order a pass solves it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hard-scan":
        cases = [_relabelled(gf, e, rng) for e in load_pool(workload)]
        cases += _prop63_cases(gf, rng)
    elif workload == "routed-mix":
        cases = [_relabelled(gf, e, rng) for e in load_pool(workload)]
        cases += _binpacking_cases(gf, rng)
    elif workload == "closed-form-large":
        cases = _closed_form_cases(gf, seed, workdir)
    else:
        raise ValueError(f"unknown workload: {workload}")
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# checks, run outside the timed region


def _witness_failure(gf, case: Case, out: Outcome) -> Optional[str]:
    inst = case.inst
    n, m = inst.n, inst.m
    if out.assignment is None:
        return "feasible without an allocation"
    items = list(out.assignment.items())
    if any(not (0 <= r < m and 0 <= a < n) for r, a in items):
        return "assignment out of range"
    notion = gf.FairnessNotion(case.notion)
    violated = gf.verify_fairness(inst, gf.Allocation(out.assignment), notion)
    if violated is not None:
        return f"violated arc {violated}"
    res = np.fromiter((r for r, _ in items), dtype=np.int64, count=len(items))
    owner = np.fromiter((a for _, a in items), dtype=np.int64, count=len(items))
    gained = inst.utilities[owner, res].astype(np.int64)
    if int(gained.sum()) != out.welfare:
        return f"reported welfare {out.welfare}, witness has {int(gained.sum())}"
    expect = case.expect
    if case.goal == "complete" and len(items) != m:
        return f"{m - len(items)} resources unassigned"
    if case.goal == "welfare" and "welfare" in expect and out.welfare != expect["welfare"]:
        return f"welfare {out.welfare}, optimum {expect['welfare']}"
    if case.goal == "pareto":
        if "frontier" in expect:
            profile = np.zeros(n, dtype=np.int64)
            np.add.at(profile, owner, gained)
            for p in expect["frontier"]:
                p = np.asarray(p)
                if np.all(p >= profile) and np.any(p > profile):
                    return f"profile {profile.tolist()} dominated by {p.tolist()}"
        else:
            # affordable necessary condition: a resource someone values must
            # go to an agent who values it, or moving it would dominate
            valued = inst.utilities.max(axis=0) > 0
            held = np.zeros(m, dtype=bool)
            held[res[gained > 0]] = True
            if np.any(valued & ~held):
                return "a valued resource is unassigned or held by an agent valuing it 0"
    return None


def check(gf, case: Case, out: Outcome) -> Optional[tuple[str, str]]:
    """``None`` when the outcome is right, else ``(kind, detail)``."""
    if out.status in ("exception", "budget"):
        return out.status, out.detail
    expect = case.expect
    if out.status != expect["verdict"]:
        return "wrong_verdict", f"{out.status}, expected {expect['verdict']}"
    if "clique" in expect and (out.welfare >= expect["threshold"]) != expect["clique"]:
        return "wrong_verdict", (
            f"welfare {out.welfare} vs threshold {expect['threshold']}, "
            f"clique {expect['clique']}"
        )
    if out.status == "feasible":
        problem = _witness_failure(gf, case, out)
        if problem:
            return "bad_witness", problem
    return None
