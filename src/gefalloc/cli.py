"""Command-line surface: solve / verify / generate.

Exit codes: 0 feasible (or verification passed), 1 infeasible (or
verification failed), 3 node budget exceeded, 2 malformed input, an
instance too large to build, or a violated algorithm guard.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

import numpy as np

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


_WS = re.compile(r"[ \t\n\r]*")  # JSON whitespace, as the json module skips it
_GRID_END = re.compile(r"\][ \t\n\r]*\]")
_SCAN = json.JSONDecoder().scan_once
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
_GRID_BLOCK = 1 << 16  # characters of grid text checked and parsed at a time
_DIGITS = 18  # a cell of at most 18 digits is below 10**18 in magnitude


def _load_json(path: str):
    """The JSON document in the file at ``path``.  A top-level object's
    ``"utilities"`` grid of integers is read straight into an int64 array
    (``_read_object``); any other text goes to ``json.loads``, with its
    values and errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = _read_object(text)
    if doc is not None:
        return doc
    try:
        return json.loads(text)
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None


def _read_object(text: str):
    """``json.loads(text)`` for a top-level object whose every
    ``"utilities"`` key holds a grid ``_read_grid`` reads, with that grid as
    an int64 array; None for any other text.  Keys and the other values go
    through the json module's own scanner."""
    ws = _WS.match
    end = ws(text, 0).end()
    if text[end:end + 1] != "{":
        return None
    doc = {}
    try:
        while True:
            at = ws(text, end + 1).end()
            if text[at:at + 1] != '"':
                return None
            key, end = _SCAN(text, at)
            end = ws(text, end).end()
            if text[end:end + 1] != ":":
                return None
            at = ws(text, end + 1).end()
            if key == "utilities":
                grid = _read_grid(text, at)
                if grid is None:
                    return None
                doc[key], end = grid
            else:
                doc[key], end = _SCAN(text, at)
            end = ws(text, end).end()
            if text[end:end + 1] != ",":
                break
    except (StopIteration, ValueError, RecursionError):
        return None
    if text[end:end + 1] != "}" or ws(text, end + 1).end() != len(text):
        return None
    return doc


def _read_grid(text: str, start: int):
    """The JSON array at ``text[start:]`` and the index after it, when it
    holds n >= 1 rows of m >= 1 integers each below 10**18 in magnitude, as
    an (n, m) int64 array; else None.  The rows are checked and parsed in
    blocks of whole rows of about ``_GRID_BLOCK`` characters."""
    if text[start:start + 1] != "[":
        return None
    close = _GRID_END.search(text, start)  # a grid's last row, then its end
    if close is None:
        return None
    ws = _WS.match
    stop = close.start() + 1
    rows = text.count("[", start + 1, stop)
    at = ws(text, start + 1).end()
    out, done = None, 0
    while text[at] == "[":
        cut = text.find("]", min(at + _GRID_BLOCK, stop - 1)) + 1
        block = _grid_rows(text[at:cut])
        if block is None:
            return None
        if out is None:
            if 2 * rows * block.shape[1] > stop - start:
                return None  # more rows than the text can hold
            out = np.empty((rows, block.shape[1]), dtype=np.int64)
        if block.shape[1] != out.shape[1] or done + len(block) > rows:
            return None
        out[done:done + len(block)] = block
        done += len(block)
        if cut == stop:
            return (out, close.end()) if done == rows else None
        at = ws(text, cut).end()  # the comma between two rows
        if text[at] != ",":
            return None
        at = ws(text, at + 1).end()
    return None


def _grid_rows(chunk: str):
    """The rows of ``chunk``, one or more JSON arrays of m >= 1 integers
    (each below 10**18 in magnitude) separated by commas, as a (rows, m)
    int64 array; None where the text is anything else.  Every check is a
    comparison of bytes, and ``np.fromstring`` parses the checked bytes,
    whitespace removed."""
    if not chunk.isascii():
        return None
    b = np.frombuffer(chunk.encode(), dtype=np.uint8)
    space = (b == 32) | (b == 10) | (b == 13) | (b == 9)
    digit = (b - np.uint8(48)) < 10
    num = digit | (b == 45)
    if space.any():
        keep = np.flatnonzero(~space)
        if (num[keep[:-1]] & num[keep[1:]] & (np.diff(keep) > 1)).any():
            return None  # whitespace inside a number
        b, digit, num = b[keep], digit[keep], num[keep]
    opens, closes, comma = b == 91, b == 93, b == 44
    if not (num | opens | comma | closes).all():
        return None  # a byte no grid holds
    lead = np.flatnonzero(opens)
    ends = np.flatnonzero(closes)
    if (len(lead) != len(ends) or lead[0] != 0 or ends[-1] != len(b) - 1
            or (lead[1:] != ends[:-1] + 2).any() or not comma[ends[:-1] + 1].all()):
        return None  # not rows "[...]" joined by single commas
    if (~num[:-1] & ~num[1:] & ~closes[:-1] & ~opens[1:]).any():
        return None  # an empty cell
    minus = b == 45
    if (minus[1:] & num[:-1]).any() or (minus[:-1] & ~digit[1:]).any():
        return None  # a sign not at the start of a cell
    if ((b[1:-1] == 48) & ~digit[:-2] & digit[2:]).any():
        return None  # a leading zero
    if np.diff(np.flatnonzero(~digit)).max() > _DIGITS + 1:
        return None  # a cell of 10**18 or more in magnitude
    width = np.add.reduceat(comma, lead, dtype=np.intp)
    if (width[:-1] != width[-1] + 1).any():
        return None  # rows of unequal length
    cells = np.fromstring(b.tobytes().translate(_UNBRACKET), dtype=np.int64, sep=",")
    return cells.reshape(len(lead), width[-1] + 1)


def _write(path, pieces):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _key_lines(doc: dict) -> list[str]:
    """One ``  "key": value`` line per key of ``doc``, in sorted order, each
    value compact from the C encoder."""
    return [f"  {json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}" for key in sorted(doc)]


def _dump_instance(inst, path, **extra):
    """Write an instance document, plus the keys of ``extra``, with each
    name list, the arcs and each utility row on one line, row by row from
    the stored array, so that no n x m nested list is built."""
    head = {"agents": list(inst.agents), "resources": list(inst.resources), **extra,
            "arcs": [[inst.agents[a], inst.agents[b]] for a, b in inst.arc_pairs()]}
    rows = (json.dumps(row.tolist()) for row in inst.utilities)
    _write(path, itertools.chain(
        ["{\n"], (line + ",\n" for line in _key_lines(head)),
        ['  "utilities": ['], ((",\n    " if i else "\n    ") + row for i, row in enumerate(rows)),
        ["\n  ]\n}\n"]))


def _cmd_solve(args) -> int:
    inst = parse_validate(_load_json(args.instance))
    res = solve(
        inst,
        FairnessNotion(args.notion),
        EfficiencyGoal(args.goal),
        args.algo,
        budget=args.budget,
    )
    alloc = None if res.allocation is None else allocation_document(inst, res.allocation)
    doc = {"verdict": res.status.value, "allocation": alloc, "welfare": res.welfare,
           "algorithm": res.route, "nodes": res.nodes}
    _write(args.out, ["{\n", ",\n".join(_key_lines(doc)), "\n}\n"])
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
    extra = {}
    if variant in CLIQUE_VARIANTS:
        inp = CliqueInput(args.graph_n, _parse_edges(args.edges), args.k)
        inst = gen_from_clique(inp, variant)
        if variant == "prop63":
            inst, extra["threshold"] = inst
    elif variant in BINPACKING_VARIANTS:
        sizes = tuple(int(s) for s in args.items.split(",")) if args.items else ()
        inp = BinPackingInput(sizes, args.capacity, args.bins)
        inst = gen_from_binpacking(inp, variant)
    elif variant == "random":
        inst = gen_random(
            args.n,
            args.m,
            PreferenceKind(args.pref_class),
            None if args.graph_class == "any" else GraphKind(args.graph_class),
            args.max_utility,
            args.seed,
        )
    else:
        raise ValidationError(f"unknown variant: {variant}")
    _dump_instance(inst, args.out, **extra)
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
