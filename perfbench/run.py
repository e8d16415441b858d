"""Benchmark of the gefalloc solvers: one workload, one seed, one run.

    python3 perfbench/run.py --workload routed-mix --seed 7 --seconds 30 --trace 0

Run from anywhere; the package is imported from the ``src`` directory next
to this one.  The run builds the workload's corpus from the seed, then solves
it pass after pass for ``--seconds`` (at least three passes and 100 solves),
one solve at a time in this one process (moved before each pass to the
least loaded allowed CPU), and checks every answer outside the timed region.
A case's latency is its fastest solve over the passes;
``solves_per_s`` is the corpus size over the sum of those latencies.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on an untraced run and then repeats the same passes with spans around
the package's layers (see tracer.py), and prints the per-layer metrics.

Standard output ends with three JSON lines: the environment, the details
(sample counts, every ratio's numerator and denominator, failures by
instance), and the result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one solving thread, and the numpy kernel: the backend this benchmark measures
os.environ["GEFALLOC_NO_NUMBA"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_SOLVES = 100
MIN_PASSES = 3         # every case's fastest solve is taken over this many
FAILURES_LISTED = 20
EXIT_CODE_VERDICT = {0: "feasible", 1: "infeasible", 3: "budget"}

clock = time.perf_counter
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def loaded_package() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "gefalloc" or n.startswith("gefalloc.")}


def set_up(args, workdir: Path):
    """Import the package anew and build the corpus: ``(gf, cases, seconds)``."""
    start = clock()
    for name in loaded_package():
        del sys.modules[name]
    gf = importlib.import_module("gefalloc")
    importlib.import_module("gefalloc.cli")
    cases = workloads.build(gf, args.workload, args.seed, workdir)
    return gf, cases, clock() - start


def timed_set_up(args, workdir: Path) -> float:
    """Repeat the set-up, then put back the package the run is solving with
    (its functions import siblings lazily, through ``sys.modules``)."""
    saved = loaded_package()
    elapsed = set_up(args, workdir)[2]
    for name in loaded_package():
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed


def solve_library(gf, case):
    notion = gf.FairnessNotion(case.notion)
    goal = gf.EfficiencyGoal(case.goal)
    start = clock()
    try:
        res = gf.solve(case.inst, notion, goal)
    except gf.BudgetExceededError as exc:
        return clock() - start, Outcome("budget", detail=f"nodes={exc.nodes}")
    except Exception as exc:  # noqa: BLE001 - every escape is a failure to report
        return clock() - start, Outcome("exception", detail=repr(exc))
    elapsed = clock() - start
    assignment = res.allocation.assignment if res.allocation is not None else None
    return elapsed, Outcome(res.status.value, res.welfare, assignment)


class CliSolver:
    """Solves a case with ``gefalloc.cli.main(["solve", ...])`` on its file.

    A solve yields ``(case id, exit code, result document)``; the check of a
    document already seen for the case is reused, which keeps the checks of
    large answers cheap on later passes.
    """

    def __init__(self, workdir: Path):
        self.out_path = str(workdir / "result.json")
        self.checked: dict[tuple, object] = {}

    def __call__(self, gf, case):
        argv = ["solve", "--notion", case.notion, "--goal", case.goal,
                "--out", self.out_path, case.path]
        start = clock()
        try:
            code = gf.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is a failure to report
            return clock() - start, (case.id, None, repr(exc))
        elapsed = clock() - start
        text = ""
        if code in EXIT_CODE_VERDICT:
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return elapsed, (case.id, code, text)

    def check(self, gf, case, key):
        if key not in self.checked:
            self.checked[key] = workloads.check(gf, case, self.outcome(case, *key[1:]))
        return self.checked[key]

    @staticmethod
    def outcome(case, code, text) -> Outcome:
        if code not in EXIT_CODE_VERDICT:
            return Outcome("exception", detail=text or f"exit code {code}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return Outcome("exception", detail=f"result document: {exc}")
        verdict = EXIT_CODE_VERDICT[code]
        if doc.get("verdict") != verdict:
            return Outcome("exception", detail=f"exit code {code}, verdict {doc.get('verdict')}")
        if verdict == "budget":
            return Outcome("budget", detail=f"nodes={doc['nodes']}")
        assignment = None
        if doc["allocation"] is not None:
            # unknown names map to -1, which the witness check rejects
            ridx = {r: i for i, r in enumerate(case.inst.resources)}
            aidx = {a: i for i, a in enumerate(case.inst.agents)}
            assignment = {
                ridx.get(r, -1): aidx.get(a, -1)
                for r, a in doc["allocation"]["assignment"].items()
            }
        return Outcome(verdict, doc["welfare"], assignment)


def _probe() -> float:
    start = clock()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return clock() - start


def pin_quietest_cpu() -> None:
    """Move this thread to the allowed CPU that runs a fixed probe fastest.

    On a shared machine another tenant's load slows one CPU at a time, for
    seconds to minutes; the choice is made again before every pass.
    """
    if len(CPUS) < 2:
        return
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def measure(gf, cases, solve_one, check_one, budget_s, min_passes, max_passes=None,
            tracer=None, between=None):
    """Solve the corpus pass after pass until the budget is spent.

    Only the solve calls are timed; ``between(elapsed)`` runs after each pass
    but the last.  Returns per-solve times, per-pass times and the failures.
    """
    samples, pass_times, failures = [], [], []
    start = clock()
    try:
        while True:
            pin_quietest_cpu()
            spent = 0.0
            for case in cases:
                if tracer is not None:
                    tracer.request += 1
                elapsed, out = solve_one(gf, case)
                samples.append(elapsed)
                spent += elapsed
                if tracer is not None:
                    tracer.paused = True  # the checks call into the package too
                failure = check_one(gf, case, out)
                if tracer is not None:
                    tracer.paused = False
                if failure:
                    failures.append({"id": case.id, "kind": failure[0], "detail": failure[1]})
            pass_times.append(spent)
            done = len(pass_times)
            if max_passes is not None and done >= max_passes:
                break
            if done >= min_passes and clock() - start + statistics.median(pass_times) > budget_s:
                break
            if between is not None:
                between(clock() - start)
    finally:
        if CPUS:
            os.sched_setaffinity(0, CPUS)
    return samples, pass_times, failures


def fastest_per_case(samples, corpus_size: int) -> list[float]:
    """Each case's fastest solve; ``samples`` run pass by pass."""
    return [min(samples[i::corpus_size]) for i in range(corpus_size)]


def percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def failure_summary(failures) -> dict:
    kinds: dict[str, int] = {}
    for f in failures:
        kinds[f["kind"]] = kinds.get(f["kind"], 0) + 1
    return {"count": len(failures), "by_kind": kinds, "first": failures[:FAILURES_LISTED]}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gefalloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(gf, args, corpus_size: int) -> dict:
    import numpy

    return {
        "backend": gf._kernels.backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_size": corpus_size,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gefalloc" / "__init__.py").is_file():
        print(f"error: no gefalloc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    gf, cases, first_setup = set_up(args, workdir)
    setup_times = [first_setup]

    def spread_set_ups(elapsed: float) -> None:
        # set-up repeats spread over the run, so a burst of slowness moves
        # their median less than repeats made back to back
        if len(setup_times) < SETUP_REPEATS and elapsed >= (
                len(setup_times) * args.seconds / SETUP_REPEATS):
            setup_times.append(timed_set_up(args, workdir))

    if args.workload == "closed-form-large":
        solver = CliSolver(workdir)
        check_one = solver.check
    else:
        solver = solve_library
        check_one = workloads.check
    env = environment(gf, args, len(cases))

    if args.trace == 0:
        min_passes = max(MIN_PASSES, math.ceil(MIN_SOLVES / len(cases)))
        samples, pass_times, failures = measure(
            gf, cases, solver, check_one, args.seconds, min_passes,
            between=spread_set_ups)
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(timed_set_up(args, workdir))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # each case's latency is its fastest pass: a shared machine slows down
        # in bursts of seconds, which the minimum over passes leaves out
        fastest = fastest_per_case(samples, len(cases))
        p90 = percentile(fastest, 0.9)
        attempted = len(samples)
        correct = attempted - len(failures)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solves_per_s": (len(cases) / sum(fastest), "1/s"),
            "solve_p50_ms": (statistics.median(fastest) * 1e3, "ms"),
            "solve_p90_ms": (p90 * 1e3, "ms"),
            "correct_ratio": (correct / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        detail = {
            "setup_s_repeats": setup_times,
            "passes": len(pass_times),
            "pass_s": pass_times,
            "solves": attempted,
            "latency_samples": len(fastest),
            "latency_samples_above_p90": sum(t > p90 for t in fastest),
            "correct_ratio": {"num": correct, "den": attempted},
            "failures": failure_summary(failures),
        }
    else:
        samples, pass_times, failures = measure(
            gf, cases, solver, check_one, args.seconds / 2, 1)
        with tracer.Tracer() as tr:
            traced, traced_passes, traced_failures = measure(
                gf, cases, solver, check_one, math.inf, len(pass_times),
                max_passes=len(pass_times), tracer=tr)
        failures += traced_failures
        attempted = len(samples) + len(traced)
        traced_s = sum(fastest_per_case(traced, len(cases)))
        untraced_s = sum(fastest_per_case(samples, len(cases)))
        metrics, ratios, routes = tracer.summarize(
            tr, len(pass_times), len(cases), traced_s, untraced_s)
        detail = {
            "passes": len(pass_times),
            "untraced_pass_s": pass_times,
            "traced_pass_s": traced_passes,
            "per_pass": "self times, calls and nodes are per pass of the corpus",
            "ratios": ratios,
            "routes": routes,
            "unpatched": tr.missing,
            "failures": failure_summary(failures),
        }

    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
