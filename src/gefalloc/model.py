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


@dataclass(frozen=True)
class PreferenceClass:
    kind: PreferenceKind
    u_diff: int  # number of distinct values in the utility matrix

    @property
    def identical(self) -> bool:
        return self.kind in (PreferenceKind.IDENTICAL, PreferenceKind.IDENTICAL_ZERO_ONE)

    @property
    def zero_one(self) -> bool:
        return self.kind in (PreferenceKind.ZERO_ONE, PreferenceKind.IDENTICAL_ZERO_ONE)


class Instance:
    """Immutable allocation instance.

    ``utilities`` is kept as a read-only numpy integer array of shape (n, m);
    ``arcs`` is a read-only (A, 2) int64 array with rows sorted
    lexicographically, so iteration order is deterministic.
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
        util = util.copy()
        util.setflags(write=False)
        self.utilities = util

        arc_arr = np.asarray(list(arcs) if not isinstance(arcs, np.ndarray) else arcs,
                             dtype=np.int64)
        if arc_arr.size == 0:
            arc_arr = np.empty((0, 2), dtype=np.int64)
        if arc_arr.ndim != 2 or arc_arr.shape[1] != 2:
            raise ValidationError("arcs must be pairs of agent indices")
        if arc_arr.size:
            if int(arc_arr.min()) < 0 or int(arc_arr.max()) >= n:
                raise ValidationError("arc endpoint out of range")
            if np.any(arc_arr[:, 0] == arc_arr[:, 1]):
                raise ValidationError("self-loops are not allowed")
            order = np.lexsort((arc_arr[:, 1], arc_arr[:, 0]))
            arc_arr = arc_arr[order]
            dup = np.all(arc_arr[1:] == arc_arr[:-1], axis=1)
            if np.any(dup):
                raise ValidationError("duplicate arcs are not allowed")
        arc_arr.setflags(write=False)
        self.arcs = arc_arr
        self._arc_pairs: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.resources)

    def arc_pairs(self) -> tuple[tuple[int, int], ...]:
        if self._arc_pairs is None:
            self._arc_pairs = tuple((int(a), int(b)) for a, b in self.arcs)
        return self._arc_pairs

    def to_document(self) -> dict:
        return {
            "agents": list(self.agents),
            "resources": list(self.resources),
            "utilities": [[int(v) for v in row] for row in self.utilities],
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

    def owner(self, resource: int) -> Optional[int]:
        return self.assignment.get(resource)

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
    def feasible(inst: "Instance", alloc: Allocation, nodes: int = 0) -> "SolveResult":
        return SolveResult(Status.FEASIBLE, alloc, utilitarian_welfare(inst, alloc), nodes)

    @staticmethod
    def infeasible(nodes: int = 0) -> "SolveResult":
        return SolveResult(Status.INFEASIBLE, None, 0, nodes)

    @staticmethod
    def budget(nodes: int) -> "SolveResult":
        return SolveResult(Status.BUDGET, None, 0, nodes)


def parse_validate(doc: dict) -> Instance:
    """Build an Instance from a plain-dict document, with field checks."""
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
    if not isinstance(util, list) or not all(isinstance(row, list) for row in util):
        raise ValidationError("utilities must be a list of rows")
    if len(util) != len(agents) or any(len(row) != len(resources) for row in util):
        raise ValidationError("utility matrix shape does not match agents x resources")
    for row in util:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError("utilities must be integers")
    index = {a: i for i, a in enumerate(agents)}
    arcs = []
    if not isinstance(doc["arcs"], list):
        raise ValidationError("arcs must be a list of [from, to] pairs")
    for arc in doc["arcs"]:
        if not (isinstance(arc, list) and len(arc) == 2):
            raise ValidationError("arcs must be [from, to] pairs")
        a, b = arc
        if a not in index or b not in index:
            raise ValidationError(f"arc references unknown agent: {arc}")
        arcs.append((index[a], index[b]))
    matrix = np.array(util, dtype=np.int64).reshape(len(agents), len(resources))
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
        if a not in aidx:
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


def dominates(inst: Instance, first: Allocation, second: Allocation) -> bool:
    """Pareto domination: everyone at least as happy, someone strictly happier."""
    p = utility_profile(inst, first)
    q = utility_profile(inst, second)
    return all(x >= y for x, y in zip(p, q)) and any(x > y for x, y in zip(p, q))


def strip_zero_resources(inst: Instance) -> tuple[Instance, list[int]]:
    """Drop resources nobody values; return the reduced instance and the
    kept-column index map (new index -> old index).

    A dropped resource adds nothing to any bundle under any utility row, so
    fairness and welfare are unchanged; for completeness a dropped resource
    may be appended to any agent afterwards.
    """
    if inst.m == 0:
        return inst, []
    keep = np.flatnonzero(inst.utilities.max(axis=0)).tolist() if inst.n else []
    if len(keep) == inst.m:
        return inst, list(range(inst.m))
    reduced = Instance(
        inst.agents,
        [inst.resources[j] for j in keep],
        inst.utilities[:, keep] if keep else inst.utilities[:, :0],
        inst.arc_pairs(),
    )
    return reduced, keep


def classify_preferences(inst: Instance) -> PreferenceClass:
    """Most specific class first; u_diff counts distinct matrix values."""
    util = inst.utilities
    if util.size == 0:
        return PreferenceClass(PreferenceKind.IDENTICAL_ZERO_ONE, 0)
    identical = bool((util == util[0]).all())
    values = np.unique(util[0] if identical else util)
    u_diff = int(values.size)
    zero_one = bool(np.all(values <= 1))
    if identical and zero_one:
        kind = PreferenceKind.IDENTICAL_ZERO_ONE
    elif identical:
        kind = PreferenceKind.IDENTICAL
    elif zero_one:
        kind = PreferenceKind.ZERO_ONE
    else:
        kind = PreferenceKind.GENERAL
    return PreferenceClass(kind, u_diff)


def enumerate_partial_allocations(inst: Instance):
    """All (n+1)^m partial allocations in the package's canonical order:
    resource 0 varies slowest, agents before 'unassigned'."""
    n, m = inst.n, inst.m
    for digits in itertools.product(range(n + 1), repeat=m):
        yield Allocation({r: a for r, a in enumerate(digits) if a < n})
