"""Command-line surface: solve / verify / generate.

Exit codes: 0 feasible (or verification passed), 1 infeasible (or
verification failed), 3 node budget exceeded, 2 malformed input, an
instance too large to build, or a violated algorithm guard.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dispatch import ALGORITHMS, solve
from .efficiency import is_pareto_efficient
from .errors import GuardError, ValidationError
from .exact import DEFAULT_BUDGET
from .generators import (
    BINPACKING_VARIANTS,
    CLIQUE_VARIANTS,
    BinPackingInput,
    CliqueInput,
    gen_from_binpacking,
    gen_from_clique,
    gen_random,
)
from .graphs import GraphKind
from .model import (
    EfficiencyGoal,
    FairnessNotion,
    PreferenceKind,
    Status,
    allocation_document,
    is_complete,
    parse_allocation,
    parse_validate,
    utilitarian_welfare,
    verify_fairness,
)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply") from None


def _dump(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result_document(inst, res) -> dict:
    return {
        "verdict": res.status.value,
        "allocation": (
            allocation_document(inst, res.allocation)
            if res.allocation is not None
            else None
        ),
        "welfare": res.welfare,
        "algorithm": res.route,
        "nodes": res.nodes,
    }


def _cmd_solve(args) -> int:
    inst = parse_validate(_load_json(args.instance))
    res = solve(
        inst,
        FairnessNotion(args.notion),
        EfficiencyGoal(args.goal),
        args.algo,
        budget=args.budget,
    )
    _dump(_result_document(inst, res), args.out)
    return {Status.FEASIBLE: EXIT_FEASIBLE, Status.INFEASIBLE: EXIT_INFEASIBLE,
            Status.BUDGET: EXIT_BUDGET}[res.status]


def _over_budget(budget: int) -> int:
    print(f"error: search budget exceeded after {max(budget, 0)} nodes", file=sys.stderr)
    return EXIT_BUDGET


def _cmd_verify(args) -> int:
    inst = parse_validate(_load_json(args.instance))
    alloc = parse_allocation(inst, _load_json(args.allocation))
    notion = FairnessNotion(args.notion)
    goal = EfficiencyGoal(args.goal)
    violated = verify_fairness(inst, alloc, notion)
    if violated is not None:
        a, b = violated
        print(
            f"violated arc: ({inst.agents[a]}, {inst.agents[b]})", file=sys.stderr
        )
        return EXIT_INFEASIBLE
    if goal is EfficiencyGoal.COMPLETE:
        if not is_complete(inst, alloc):
            print("allocation is not complete", file=sys.stderr)
            return EXIT_INFEASIBLE
    elif goal is EfficiencyGoal.PARETO:
        efficient = is_pareto_efficient(inst, alloc, args.budget)
        if efficient is None:
            return _over_budget(args.budget)
        if not efficient:
            print("allocation is not Pareto-efficient", file=sys.stderr)
            return EXIT_INFEASIBLE
    else:
        best = solve(inst, notion, goal, budget=args.budget)
        if best.status is Status.BUDGET:
            return _over_budget(args.budget)
        if (
            best.status is not Status.FEASIBLE
            or utilitarian_welfare(inst, alloc) != best.welfare
        ):
            print("allocation does not maximize welfare", file=sys.stderr)
            return EXIT_INFEASIBLE
    return EXIT_FEASIBLE


def _parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        u, _, v = part.partition("-")
        out.append((int(u), int(v)))
    return tuple(out)


def _cmd_generate(args) -> int:
    variant = args.variant
    if variant in CLIQUE_VARIANTS:
        inp = CliqueInput(args.graph_n, _parse_edges(args.edges), args.k)
        built = gen_from_clique(inp, variant)
        if variant == "prop63":
            inst, threshold = built
            doc = inst.to_document()
            doc["threshold"] = threshold
        else:
            doc = built.to_document()
    elif variant in BINPACKING_VARIANTS:
        sizes = tuple(int(s) for s in args.items.split(",")) if args.items else ()
        inp = BinPackingInput(sizes, args.capacity, args.bins)
        doc = gen_from_binpacking(inp, variant).to_document()
    elif variant == "random":
        inst = gen_random(
            args.n,
            args.m,
            PreferenceKind(args.pref_class),
            None if args.graph_class == "any" else GraphKind(args.graph_class),
            args.max_utility,
            args.seed,
        )
        doc = inst.to_document()
    else:
        raise ValidationError(f"unknown variant: {variant}")
    _dump(doc, args.out)
    return EXIT_FEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gefalloc",
        description="Exact solvers for fair allocation under graph envy-freeness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--notion", choices=["weak", "strict"], default="weak")
        p.add_argument(
            "--goal", choices=["complete", "pareto", "welfare"], default="complete"
        )
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    common(p_solve)
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="auto")
    p_solve.add_argument("--out")
    p_solve.add_argument("instance")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check an allocation file")
    common(p_verify)
    p_verify.add_argument("instance")
    p_verify.add_argument("allocation")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="write an instance file")
    p_gen.add_argument(
        "--variant",
        required=True,
        help="one of: "
        + ", ".join(CLIQUE_VARIANTS + BINPACKING_VARIANTS + ("random",)),
    )
    p_gen.add_argument("--graph-n", type=int, default=0, help="clique input: vertices")
    p_gen.add_argument(
        "--edges", default="", help="clique input: comma list like 0-1,1-2"
    )
    p_gen.add_argument("--k", type=int, default=2, help="clique input: clique size")
    p_gen.add_argument("--items", default="", help="bin packing: comma list of sizes")
    p_gen.add_argument("--capacity", type=int, default=1, help="bin packing: bin size")
    p_gen.add_argument("--bins", type=int, default=1, help="bin packing: bin count")
    p_gen.add_argument("--n", type=int, default=3, help="random: agents")
    p_gen.add_argument("--m", type=int, default=4, help="random: resources")
    p_gen.add_argument(
        "--pref-class",
        choices=[k.value for k in PreferenceKind],
        default="general",
    )
    p_gen.add_argument(
        "--graph-class",
        choices=["acyclic", "strongly-connected", "any"],
        default="any",
    )
    p_gen.add_argument("--max-utility", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GuardError, OSError, ValueError, KeyError, MemoryError) as exc:
        # ValueError covers ValidationError and json.JSONDecodeError, and
        # MemoryError an instance too large to build
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
