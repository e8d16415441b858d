"""Compare two checkouts of gefalloc on one benchmark workload, in pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload routed-mix \
        [--pairs 10] [--seconds 30] [--seed0 1]

Pair ``i`` runs ``perfbench/run.py --trace 0`` in both checkouts with seed
``seed0 + i``, one run at a time; even pairs run PARENT first and odd pairs
CHANGE first, so that a slow phase of the machine does not always hit the
same side.  For every end-to-end metric of PARENT's ``BENCHMARK.json`` it
then prints each side's median and quartiles and how many pairs the change
won, and the two verdicts below; a last line holds every run's metrics
as JSON.

- ``claim``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile distance;
- ``bound``: the change's median is not worse than the parent's by more
  than the metric's bound, a share of the parent's median.  The metric is
  ``unresolved`` instead when either side's interquartile distance, as a
  share of its median, is wider than the bound, unless every run of the
  change reads better than every run of the parent.

The runs start in a temporary directory with ``PYTHONDONTWRITEBYTECODE=1``,
so this script writes nothing into either checkout (``run.py`` removes its
own work directory).  A run that exits non-zero stops the comparison with
that exit code, and a run with a wrong answer stops it with exit code 1.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CLAIM_WINS = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``perfbench/spread.py``
    computes them; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q: tuple[float, float, float]) -> float:
    """Interquartile distance as a share of the median."""
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per end-to-end metric (``BENCHMARK.json``'s entries, with
    ``name``, ``better`` and ``bound``) from the metric dicts of paired runs
    (``parent[i]`` and ``change[i]`` share a seed): each side's quartiles,
    the change's wins, whether the claim rule and the bound hold, and
    whether the spread leaves the bound unresolved."""
    rows = []
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        old = [run[name]["value"] for run in parent]
        new = [run[name]["value"] for run in change]
        q_old, q_new = quartiles(old), quartiles(new)
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        gain = sign * (q_new[1] - q_old[1])
        rows.append({
            "name": name, "better": spec["better"], "bound": spec["bound"],
            "parent": q_old, "change": q_new, "wins": wins, "pairs": len(old),
            "claim": wins >= math.ceil(CLAIM_WINS * len(old)) and gain > q_old[2] - q_old[0],
            "within_bound": -gain <= spec["bound"] * abs(q_old[1]),
            "unresolved": max(spread(q_old), spread(q_new)) > spec["bound"]
            and min(sign * b for b in new) <= max(sign * a for a in old),
        })
    return rows


def verdict(row: dict) -> str:
    if row["unresolved"]:
        return "unresolved"
    return "within" if row["within_bound"] else "WORSE"


def run_once(checkout: Path, workload: str, seed: int, seconds: int, cwd: str) -> dict:
    """The metrics of one ``run.py`` run in ``checkout``; exits on a failed
    or incorrect run."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        print(f"error: {checkout} seed {seed} exited {done.returncode}", file=sys.stderr)
        sys.exit(done.returncode)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"error: {checkout} seed {seed}: {result['failed']} of "
              f"{result['attempted']} solves wrong", file=sys.stderr)
        sys.exit(1)
    return result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    sides = (args.parent.resolve(), args.change.resolve())
    spec = json.loads((sides[0] / "BENCHMARK.json").read_text())
    runs: tuple[list[dict], list[dict]] = ([], [])
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as cwd:
        for i in range(args.pairs):
            seed = args.seed0 + i
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[side].append(run_once(sides[side], args.workload, seed, args.seconds, cwd))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds} s, seeds "
          f"{args.seed0}-{args.seed0 + args.pairs - 1}")
    print(f"{'metric':14s} {'better':6s} {'parent q1 / median / q3':>32s} "
          f"{'change q1 / median / q3':>32s}  wins   claim  bound")
    for row in summarize(spec["end_to_end"], *runs):
        old, new = ("{:10.4g} {:10.4g} {:10.4g}".format(*row[s]) for s in ("parent", "change"))
        print(f"{row['name']:14s} {row['better']:6s} {old}  {new}  "
              f"{row['wins']:2d}/{row['pairs']:<2d}  {'yes' if row['claim'] else 'no':5s}  "
              f"{verdict(row)} {row['bound']}")
    print(json.dumps({"parent": runs[0], "change": runs[1]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
