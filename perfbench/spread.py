"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --out perfbench/baseline.json

For every workload (or those given with --workload) it runs run.py with
--trace 0 once per seed, one run at a time, and reports per end-to-end
metric the median, the quartiles and the interquartile distance as a share
of the median, next to the bound BENCHMARK.json gives the metric.  One more
run with --trace 1 on the first seed records the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-3])["environment"]
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        seeds = seed_list(args.seeds)
        runs = [run_once(workload, s, args.seconds) for s in seeds]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "values": values}
            print(f"{workload:18s} {name:14s} median {q2:12.5g}  spread {spread:7.4f}"
                  f"  bound {bound}", flush=True)
        traced = run_once(workload, seeds[0], args.seconds, trace=1)
        report["workloads"][workload] = {
            "metrics": summary,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "environment": runs[0]["environment"],
            "traced": {k: traced[k] for k in ("metrics", "detail", "failed", "attempted")},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
