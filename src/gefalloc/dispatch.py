"""The route table and the top-level solve entry point.

``analyze`` computes the facts routing needs once per solve.  ``ROUTES``
lists every solver with the condition under which it is correct for an
(instance, notion, goal) triple; a forced route must meet its condition and
the automatic route takes the first row that meets it.  A row is the only
place its solver's condition is checked: the solvers assume it and read
graph facts from the one ``Analysis``.  Every row but ``brute`` (and
``alg2``, whose greedy pass needs no agent) wants at least one agent, and
the automatic route sends every instance without agents to ``brute``.

Complete-goal rows also serve Pareto and MaxWelfare under identical
preferences: there a fair allocation is complete (once worthless resources
are stripped) iff it is Pareto-efficient iff it is welfare-maximal.  Under
0/1 preferences the type program with every non-maximiser pair forbidden
finds exactly the fair allocations that reach the column-maximum bound,
which are welfare-maximal and Pareto-efficient; when there are none, no
fair allocation is Pareto-efficient, while a welfare optimum may still exist
below the bound.  So a MaxWelfare solve whose route answers infeasible falls
through to brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .errors import GuardError
from .exact import (
    DEFAULT_BUDGET,
    _sgef_owners,
    brute_force,
    sgef_fpt_search_size,
    solve_identical_enum,
    solve_ilp,
    solve_sgef_fpt_resources,
)
from .graphs import GraphClass, GraphKind, classify_graph
from .model import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    PreferenceClass,
    SolveResult,
    Status,
    classify_preferences,
    strip_zero_resources,
)
from .poly import (
    solve_efficient_dag,
    solve_gef_dag,
    solve_gef_id01_scc,
    solve_sgef_id01,
    solve_sgef_identical_manyvalues,
)
from .structures import solve_gef_identical_structures

WEAK, STRICT = FairnessNotion.WEAK, FairnessNotion.STRICT
COMPLETE = EfficiencyGoal.COMPLETE

# beyond this many enumeration nodes the strict case split defers to the ILP
SGEF_FPT_LIMIT = 10**6


@dataclass(frozen=True)
class Analysis:
    """Routing facts of one instance: the instance with worthless resources
    stripped, the kept-column map (new index -> old index), the preference
    class of the stripped instance and, on first use, its graph class and
    the owners of the strict case split."""

    inst: Instance
    stripped: Instance
    keep: tuple[int, ...]
    prefs: PreferenceClass

    @cached_property
    def graph(self) -> GraphClass:
        return classify_graph(self.stripped)

    @cached_property
    def sgef_owners(self) -> Optional[list[int]]:
        """The agents ``sgef-fpt`` scans, ``None`` when the strict case
        split answers infeasible (``exact._sgef_owners``)."""
        return _sgef_owners(self.stripped, self.graph)

    @property
    def acyclic(self) -> bool:
        return self.graph.kind is GraphKind.ACYCLIC

    @property
    def scc_like(self) -> bool:
        return self.graph.kind is GraphKind.STRONGLY_CONNECTED or self.stripped.n <= 1

    def lift(self, res: SolveResult) -> SolveResult:
        """Carry a result on the stripped instance back to the original one;
        worthless resources go to agent 0, so the instance needs an agent."""
        if res.allocation is None or len(self.keep) == self.inst.m:
            return res
        assignment = dict.fromkeys(range(self.inst.m), 0)
        assignment.update((self.keep[r], a) for r, a in res.allocation.assignment.items())
        return SolveResult(res.status, Allocation(assignment), res.welfare, res.nodes)


def analyze(inst: Instance) -> Analysis:
    stripped, keep = strip_zero_resources(inst)
    return Analysis(inst, stripped, tuple(keep), classify_preferences(stripped))


def _serves(a: Analysis, goal: EfficiencyGoal) -> bool:
    """Whether a complete-goal route answers ``goal`` for this instance."""
    return a.inst.n > 0 and (goal is COMPLETE or a.prefs.identical)


@dataclass(frozen=True)
class Route:
    name: str
    applies: Callable[[Analysis, FairnessNotion, EfficiencyGoal], bool]
    run: Callable[[Analysis, FairnessNotion, EfficiencyGoal, int], SolveResult]


# In automatic order.  The run functions look solvers up by module name at
# call time, so a wrapper installed on this module's attribute sees the call.
ROUTES = (
    Route("immediate-infeasible",
          lambda a, notion, goal: notion is STRICT and _serves(a, goal)
          and a.prefs.identical and not a.acyclic,
          lambda a, notion, goal, budget: SolveResult.infeasible()),
    Route("alg1",
          lambda a, notion, goal: notion is STRICT and _serves(a, goal)
          and a.prefs.identical and a.prefs.zero_one,
          lambda a, notion, goal, budget: a.lift(solve_sgef_id01(a.stripped, a.graph))),
    Route("dag",
          lambda a, notion, goal: notion is WEAK and _serves(a, goal) and a.acyclic,
          lambda a, notion, goal, budget: solve_gef_dag(a.inst, a.graph)),
    Route("manyvalues",
          lambda a, notion, goal: _serves(a, goal) and a.prefs.identical
          and a.acyclic and a.prefs.u_diff > a.stripped.n,
          lambda a, notion, goal, budget:
          a.lift(solve_sgef_identical_manyvalues(a.stripped, a.graph))),
    Route("sgef-fpt",
          lambda a, notion, goal: notion is STRICT and _serves(a, goal),
          lambda a, notion, goal, budget:
          a.lift(solve_sgef_fpt_resources(a.stripped, a.sgef_owners, budget))),
    Route("scc-id01",
          lambda a, notion, goal: notion is WEAK and _serves(a, goal)
          and a.prefs.identical and a.prefs.zero_one and a.scc_like,
          lambda a, notion, goal, budget: a.lift(solve_gef_id01_scc(a.stripped))),
    Route("ident-enum",
          lambda a, notion, goal: _serves(a, goal) and a.prefs.identical and a.scc_like,
          lambda a, notion, goal, budget:
          a.lift(solve_identical_enum(a.stripped, notion, budget))),
    Route("struct-fpt",
          lambda a, notion, goal: notion is WEAK and _serves(a, goal) and a.prefs.identical,
          lambda a, notion, goal, budget:
          a.lift(solve_gef_identical_structures(a.stripped, a.graph, budget))),
    Route("ilp",
          lambda a, notion, goal: _serves(a, goal) or (a.prefs.zero_one and a.inst.n > 0),
          lambda a, notion, goal, budget:
          a.lift(solve_ilp(a.stripped, notion, budget=budget, goal=goal))),
    Route("alg2",
          lambda a, notion, goal: notion is WEAK and goal is EfficiencyGoal.PARETO
          and a.acyclic,
          lambda a, notion, goal, budget: solve_efficient_dag(a.inst)),
    Route("brute",
          lambda a, notion, goal: True,
          lambda a, notion, goal, budget: brute_force(a.inst, notion, goal, budget)),
)
ROUTE = {route.name: route for route in ROUTES}
ALGORITHMS = ("auto",) + tuple(ROUTE)


def select_algorithm(a: Analysis, notion: FairnessNotion, goal: EfficiencyGoal) -> str:
    """Name of the first route the automatic solve runs."""
    if a.inst.n == 0 or (goal is not COMPLETE and a.inst.m == 0):
        # brute is the one row that answers every goal without agents, and
        # with nothing to hand out the empty allocation is the Pareto and
        # welfare answer, which no class-based route reports
        return "brute"
    return next(
        route.name
        for route in ROUTES
        if route.applies(a, notion, goal)
        and (route.name != "sgef-fpt"
             or sgef_fpt_search_size(a.sgef_owners, a.stripped.m) <= SGEF_FPT_LIMIT)
    )


def solve(
    inst: Instance,
    notion: FairnessNotion,
    goal: EfficiencyGoal,
    algorithm: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Solve with the named route, or the automatic one; ``route`` of the
    result names every route that ran."""
    if algorithm not in ALGORITHMS:
        raise GuardError(f"unknown algorithm: {algorithm}")
    a = analyze(inst)
    if algorithm == "auto":
        algorithm = select_algorithm(a, notion, goal)
    elif not ROUTE[algorithm].applies(a, notion, goal):
        raise GuardError(
            f"{algorithm} does not serve this instance with "
            f"notion={notion.value}, goal={goal.value}"
        )
    res = ROUTE[algorithm].run(a, notion, goal, budget)
    chain = algorithm
    if (
        goal is EfficiencyGoal.MAX_WELFARE
        and res.status is Status.INFEASIBLE
        and algorithm != "brute"
    ):
        res = brute_force(inst, notion, goal, budget)
        chain += "->brute"
    return SolveResult(res.status, res.allocation, res.welfare, res.nodes, chain)
