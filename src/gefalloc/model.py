"""Core data model: instances, allocations, fairness and efficiency checks.

An instance couples named agents and resources with a non-negative integer
utility matrix (one row per agent) and a directed attention graph over the
agents.  An agent only compares its bundle against the bundles of agents it
has an arc to, and both bundles are valued with the comparing agent's own
utility row.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError

UTILITY_BOUND = 2**62


class FairnessNotion(enum.Enum):
    WEAK = "weak"
    STRICT = "strict"


class EfficiencyGoal(enum.Enum):
    COMPLETE = "complete"
    PARETO = "pareto"
    MAX_WELFARE = "welfare"


class PreferenceKind(enum.Enum):
    IDENTICAL_ZERO_ONE = "identical-zero-one"
    IDENTICAL = "identical"
    ZERO_ONE = "zero-one"
    GENERAL = "general"


@dataclass
class PreferenceClass:
    kind: PreferenceKind
    u_diff: int  # number of distinct values in the utility matrix

    @property
    def identical(self) -> bool:
        return self.kind in _IDENTICAL_KINDS

    @property
    def zero_one(self) -> bool:
        return self.kind in _ZERO_ONE_KINDS


_IDENTICAL_KINDS = (PreferenceKind.IDENTICAL, PreferenceKind.IDENTICAL_ZERO_ONE)
_ZERO_ONE_KINDS = (PreferenceKind.ZERO_ONE, PreferenceKind.IDENTICAL_ZERO_ONE)


class Instance:
    """Immutable allocation instance.

    ``utilities`` is kept as a read-only copy of shape (n, m) in the
    narrowest signed integer type (int8, int16, int32 or int64) that holds
    its largest value, whatever the caller's type; numpy arithmetic on it
    wraps in that type, so widen (``int(v)``, ``.tolist()``,
    ``.astype(np.int64)``) before adding or multiplying.  ``arcs`` is a
    read-only (A, 2) int64 array with rows sorted lexicographically, so
    iteration order is deterministic.

    The constructor checks every field.  ``Instance._derived`` skips the
    checks; only code of this package that builds an instance from data
    already known valid (``strip_zero_resources``, the clique of
    ``structures._equal_split``) may call it.
    """

    def __init__(
        self,
        agents: Sequence[str],
        resources: Sequence[str],
        utilities,
        arcs: Iterable[tuple[int, int]],
    ):
        self.agents = tuple(str(a) for a in agents)
        self.resources = tuple(str(r) for r in resources)
        n, m = len(self.agents), len(self.resources)
        if len(set(self.agents)) != n:
            raise ValidationError("duplicate agent names")
        if len(set(self.resources)) != m:
            raise ValidationError("duplicate resource names")

        nested = (list, tuple)
        if (isinstance(utilities, nested) and utilities
                and all(isinstance(row, nested) for row in utilities)):
            util = _utility_rows(utilities, n, m)
        else:
            util = np.asarray(utilities)
        if util.size == 0 and n * m == 0:
            # empty inputs arrive as float arrays of ambiguous shape
            util = np.zeros((n, m), dtype=np.int64)
        if not np.issubdtype(util.dtype, np.integer):
            raise ValidationError("utilities must be integers")
        if util.shape != (n, m):
            raise ValidationError(
                f"utility matrix shape {util.shape} does not match "
                f"{n} agents x {m} resources"
            )
        if util.size and int(util.min()) < 0:
            raise ValidationError("utilities must be non-negative")
        max_u = int(util.max()) if util.size else 0
        if n * m * max(max_u, 1) >= UTILITY_BOUND:
            raise ValidationError("utility totals may overflow 64-bit arithmetic")
        util = util.astype(np.min_scalar_type(-max_u - 1), order="C")
        util.setflags(write=False)
        self.utilities = util

        arc_arr = np.asarray(list(arcs) if not isinstance(arcs, np.ndarray) else arcs)
        if arc_arr.size == 0:
            arc_arr = np.empty((0, 2), dtype=np.int64)
        if arc_arr.ndim != 2 or arc_arr.shape[1] != 2:
            raise ValidationError("arcs must be pairs of agent indices")
        if not np.issubdtype(arc_arr.dtype, np.integer):
            raise ValidationError("arc endpoints must be integer agent indices")
        if arc_arr.size:
            if int(arc_arr.min()) < 0 or int(arc_arr.max()) >= n:
                raise ValidationError("arc endpoint out of range")
            if np.any(arc_arr[:, 0] == arc_arr[:, 1]):
                raise ValidationError("self-loops are not allowed")
            order = np.lexsort((arc_arr[:, 1], arc_arr[:, 0]))
            arc_arr = arc_arr[order].astype(np.int64, copy=False)
            dup = np.all(arc_arr[1:] == arc_arr[:-1], axis=1)
            if np.any(dup):
                raise ValidationError("duplicate arcs are not allowed")
        arc_arr.setflags(write=False)
        self.arcs = arc_arr
        self._arc_pairs: tuple[tuple[int, int], ...] = tuple(map(tuple, arc_arr.tolist()))

    @classmethod
    def _derived(cls, agents: tuple[str, ...], resources: tuple[str, ...], utilities,
                 arcs: np.ndarray, arc_pairs) -> "Instance":
        """An instance from fields that are already valid, without checks:
        distinct names, a non-negative integer matrix of shape (n, m) that
        no one else writes to (kept in its type), and a read-only lexsorted
        (A, 2) int64 array of valid arcs, with ``arc_pairs`` its Python
        pairs."""
        inst = cls.__new__(cls)
        utilities.setflags(write=False)
        arcs.setflags(write=False)
        inst.agents, inst.resources, inst.utilities = agents, resources, utilities
        inst.arcs, inst._arc_pairs = arcs, arc_pairs
        return inst

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.resources)

    def arc_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._arc_pairs

    def to_document(self) -> dict:
        return {
            "agents": list(self.agents),
            "resources": list(self.resources),
            "utilities": self.utilities.tolist(),
            "arcs": [[self.agents[a], self.agents[b]] for a, b in self.arc_pairs()],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instance)
            and self.agents == other.agents
            and self.resources == other.resources
            and np.array_equal(self.utilities, other.utilities)
            and np.array_equal(self.arcs, other.arcs)
        )

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.m}, arcs={len(self.arcs)})"


class Allocation:
    """Partial mapping of resources to agents, stored resource -> agent."""

    def __init__(self, assignment: Mapping[int, int]):
        self.assignment = {int(r): int(a) for r, a in assignment.items()}

    def bundles(self, n: int) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(n)]
        for r in sorted(self.assignment):
            out[self.assignment[r]].append(r)
        return out

    def unassigned(self, m: int) -> list[int]:
        return [r for r in range(m) if r not in self.assignment]

    def __eq__(self, other) -> bool:
        return isinstance(other, Allocation) and self.assignment == other.assignment

    def __len__(self) -> int:
        return len(self.assignment)

    def __repr__(self) -> str:
        return f"Allocation({self.assignment})"


class Status(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    BUDGET = "budget"


@dataclass(frozen=True)
class SolveResult:
    status: Status
    allocation: Optional[Allocation]
    welfare: int
    nodes: int
    # the routes that ran, joined by "->" (set by dispatch.solve)
    route: str = field(default="", compare=False)

    @staticmethod
    def feasible(inst: "Instance", alloc: Allocation, nodes: int = 0,
                 welfare: Optional[int] = None) -> "SolveResult":
        if welfare is None:
            welfare = utilitarian_welfare(inst, alloc)
        return SolveResult(Status.FEASIBLE, alloc, welfare, nodes)

    @staticmethod
    def infeasible(nodes: int = 0) -> "SolveResult":
        return SolveResult(Status.INFEASIBLE, None, 0, nodes)

    @staticmethod
    def budget(nodes: int) -> "SolveResult":
        return SolveResult(Status.BUDGET, None, 0, nodes)


_SHAPE_MISMATCH = "utility matrix shape does not match agents x resources"


def _utility_rows(rows: Sequence, n: int, m: int) -> np.ndarray:
    """Nested lists (or tuples) of utilities as an (n, m) int64 array: the
    one check of such input, for ``Instance`` and ``parse_validate``.
    There must be n rows of m cells, and every cell must be an integer
    (bools are not) that fits in 64 bits; numpy integer scalars count, for
    library callers."""
    if len(rows) != n or any(len(row) != m for row in rows):
        raise ValidationError(_SHAPE_MISMATCH)
    types = set(map(type, itertools.chain.from_iterable(rows)))
    if any(not issubclass(t, (int, np.integer)) or issubclass(t, bool) for t in types):
        raise ValidationError("utilities must be integers")
    try:
        return np.array(rows, dtype=np.int64).reshape(n, m)
    except OverflowError:
        raise ValidationError("utilities must fit in 64-bit integers") from None


def parse_validate(doc: dict) -> Instance:
    """Build an Instance from a plain-dict document, with field checks.
    ``"utilities"`` is a list of rows, or an (n, m) array, as
    ``cli._load_json`` reads a grid of integers."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    for key in ("agents", "resources", "utilities", "arcs"):
        if key not in doc:
            raise ValidationError(f"missing field: {key}")
    agents = doc["agents"]
    resources = doc["resources"]
    if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
        raise ValidationError("agents must be a list of strings")
    if not isinstance(resources, list) or not all(isinstance(r, str) for r in resources):
        raise ValidationError("resources must be a list of strings")
    util = doc["utilities"]
    if isinstance(util, np.ndarray):  # a grid as cli._load_json reads one
        if util.shape != (len(agents), len(resources)):
            raise ValidationError(_SHAPE_MISMATCH)
        matrix = util
    elif not isinstance(util, list) or not all(isinstance(row, list) for row in util):
        raise ValidationError("utilities must be a list of rows")
    else:
        matrix = _utility_rows(util, len(agents), len(resources))
    index = {a: i for i, a in enumerate(agents)}
    arcs = []
    if not isinstance(doc["arcs"], list):
        raise ValidationError("arcs must be a list of [from, to] pairs")
    for arc in doc["arcs"]:
        if not (isinstance(arc, list) and len(arc) == 2):
            raise ValidationError("arcs must be [from, to] pairs")
        a, b = arc
        if not (isinstance(a, str) and isinstance(b, str) and a in index and b in index):
            raise ValidationError(f"arc references unknown agent: {arc}")
        arcs.append((index[a], index[b]))
    return Instance(agents, resources, matrix, arcs)


def parse_allocation(inst: Instance, doc: dict) -> Allocation:
    """Read an allocation document ({"assignment": {resource: agent}, ...})."""
    if not isinstance(doc, dict) or "assignment" not in doc:
        raise ValidationError("allocation document must contain an assignment object")
    if not isinstance(doc["assignment"], dict):
        raise ValidationError("assignment must map resource names to agent names")
    ridx = {r: i for i, r in enumerate(inst.resources)}
    aidx = {a: i for i, a in enumerate(inst.agents)}
    assignment = {}
    for r, a in doc["assignment"].items():
        if r not in ridx:
            raise ValidationError(f"unknown resource in assignment: {r}")
        if not isinstance(a, str) or a not in aidx:
            raise ValidationError(f"unknown agent in assignment: {a}")
        assignment[ridx[r]] = aidx[a]
    return Allocation(assignment)


def allocation_document(inst: Instance, alloc: Allocation) -> dict:
    return {
        "assignment": {
            inst.resources[r]: inst.agents[a]
            for r, a in sorted(alloc.assignment.items())
        },
        "unassigned": [inst.resources[r] for r in alloc.unassigned(inst.m)],
    }


def _own_values(inst: Instance, alloc: Allocation) -> np.ndarray:
    vals = np.zeros(inst.n, dtype=np.int64)
    for r, a in alloc.assignment.items():
        vals[a] += int(inst.utilities[a, r])
    return vals


def verify_fairness(
    inst: Instance, alloc: Allocation, notion: FairnessNotion
) -> Optional[tuple[int, int]]:
    """Return None when fair, else the lexicographically first violated arc."""
    delta = 1 if notion is FairnessNotion.STRICT else 0
    own = _own_values(inst, alloc)
    bundles: dict[int, list[int]] = {}
    for r, a in alloc.assignment.items():
        bundles.setdefault(a, []).append(r)
    for a, b in inst.arc_pairs():  # stored sorted, so first hit is lex-first
        rhs = 0
        held = bundles.get(b)
        if held:
            row = inst.utilities[a]
            rhs = int(sum(int(row[r]) for r in held))
        if int(own[a]) < rhs + delta:
            return (a, b)
    return None


def is_complete(inst: Instance, alloc: Allocation) -> bool:
    return len(alloc.assignment) == inst.m


def utilitarian_welfare(inst: Instance, alloc: Allocation) -> int:
    return int(sum(int(inst.utilities[a, r]) for r, a in alloc.assignment.items()))


def utility_profile(inst: Instance, alloc: Allocation) -> tuple[int, ...]:
    return tuple(int(v) for v in _own_values(inst, alloc))


def strip_zero_resources(inst: Instance) -> tuple[Instance, list[int]]:
    """Drop resources nobody values; return the reduced instance and the
    kept-column index map (new index -> old index).

    A dropped resource adds nothing to any bundle under any utility row, so
    fairness and welfare are unchanged; for completeness a dropped resource
    may be appended to any agent afterwards.
    """
    n, m = inst.utilities.shape
    if m == 0:
        return inst, []
    keep = inst.utilities.max(axis=0).nonzero()[0].tolist() if n else []
    if len(keep) == m:
        return inst, keep
    reduced = Instance._derived(
        inst.agents,
        tuple([inst.resources[j] for j in keep]),
        inst.utilities.take(keep, axis=1),
        inst.arcs,
        inst.arc_pairs(),
    )
    return reduced, keep


def classify_preferences(inst: Instance) -> PreferenceClass:
    """Most specific class first; u_diff counts distinct matrix values.

    One pass over the rows tells identical rows; one sort of the first row
    (identical rows) or of the whole matrix gives the distinct values and
    the largest.
    """
    util = inst.utilities
    if util.size == 0:
        return PreferenceClass(PreferenceKind.IDENTICAL_ZERO_ONE, 0)
    # the first row whose bytes differ from row 0's ends the scan
    first = util[0].tobytes()
    identical = all(row.tobytes() == first for row in util)
    # numpy sorts int8 many times slower than int16: sort at 16 bits or more
    wide = np.promote_types(util.dtype, np.int16)
    values = (util[0] if identical else util).astype(wide).ravel()
    values.sort()
    u_diff = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
    zero_one = int(values[-1]) <= 1  # utilities are non-negative
    if identical and zero_one:
        kind = PreferenceKind.IDENTICAL_ZERO_ONE
    elif identical:
        kind = PreferenceKind.IDENTICAL
    elif zero_one:
        kind = PreferenceKind.ZERO_ONE
    else:
        kind = PreferenceKind.GENERAL
    return PreferenceClass(kind, u_diff)
