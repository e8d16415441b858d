"""The route table and the top-level solve entry point.

``analyze`` computes the facts routing needs once per solve.  ``ROUTES``
lists every solver with the condition under which it is correct for an
(instance, notion, goal) triple; a forced route must meet its condition.  A
row is the only place its solver's condition is checked: the solvers assume
it and read graph facts from the one ``Analysis``.  Every row but ``brute``
(and ``alg2``, whose greedy pass needs no agent) wants at least one agent,
and the automatic route sends every instance without agents to ``brute``.

The table is in the automatic route's order, and auto is one pass over it:
the closed forms come first, and it takes the first that meets its
condition.  Otherwise it takes the cheapest search whose node bound fits the
budget, ties going to row order; a search's cost is a fixed time plus a time
per node of its bound (each search row's ``bound`` and ``cost``).  When no
bound fits, it takes the first search in row order, skipping those whose
exact bound is over the budget.

Complete-goal rows also serve Pareto and MaxWelfare under identical
preferences: there a fair allocation is complete (once worthless resources
are stripped) iff it is Pareto-efficient iff it is welfare-maximal.  Under
0/1 preferences the type program with every non-maximiser pair forbidden
finds exactly the fair allocations that reach the column-maximum bound,
which are welfare-maximal and Pareto-efficient; when there are none, no
fair allocation is Pareto-efficient, while a welfare optimum may still exist
below the bound.  So a MaxWelfare solve whose route answers infeasible falls
through to brute force, which gets what that route left of the budget; the
result counts the nodes of both, unless the answer settles the solve
(``Route.settles``).  Brute force under auto, as a row or as the fallback,
scans the stripped instance and lifts its answer: worthless resources change
neither fairness nor welfare and sit on agent 0 in canonical order, so only
``nodes`` differs from forced ``brute``, the oracle on the original instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .errors import GuardError
from .exact import (
    DEFAULT_BUDGET,
    ResourceTypeTable,
    _sgef_owners,
    brute_force,
    ilp_search_size,
    sgef_fpt_search_size,
    solve_identical_enum,
    solve_ilp,
    solve_sgef_fpt_resources,
)
from .graphs import GraphKind, classify_graph
from .model import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
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
COMPLETE, PARETO, WELFARE = EfficiencyGoal
ACYCLIC, STRONGLY_CONNECTED = GraphKind.ACYCLIC, GraphKind.STRONGLY_CONNECTED

# A row whose bound is 0 answers without searching, in about NO_SEARCH_S.
NO_SEARCH_S = 10e-6

_LAZY = object()  # an analysis fact not built yet


class Estimate(NamedTuple):
    """A search row's node bound (``math.inf`` when it has none) and the
    seconds it may take: its fixed cost plus its cost per node times the
    bound, capped at the budget, and under MaxWelfare plus the brute-force
    fallback's."""

    bound: float
    seconds: float


class Analysis:
    """Routing facts of one instance, computed once per solve: the instance
    with worthless resources stripped, the kept-column map (new index -> old
    index), the preference and graph classes of the stripped instance, and
    the flags the route conditions read.  The owners of the strict case
    split and the resource types are built on first read, without the lock
    of a cached_property."""

    def __init__(self, inst: Instance):
        stripped, keep = strip_zero_resources(inst)
        self.inst, self.stripped, self.keep = inst, stripped, tuple(keep)
        self.prefs = prefs = classify_preferences(stripped)
        self.graph = graph = classify_graph(stripped)
        n = len(inst.agents)
        self.has_agents = n > 0
        self.identical = prefs.identical
        self.zero_one = prefs.zero_one
        self.acyclic = graph.kind is ACYCLIC
        self.scc_like = graph.kind is STRONGLY_CONNECTED or n <= 1
        self._owners = self._types = _LAZY

    @property
    def sgef_owners(self) -> Optional[list[int]]:
        """The agents ``sgef-fpt`` scans, ``None`` when the strict case
        split answers infeasible (``exact._sgef_owners``)."""
        if self._owners is _LAZY:
            self._owners = _sgef_owners(self.stripped, self.graph)
        return self._owners

    @property
    def types(self) -> ResourceTypeTable:
        """The resource types of the stripped instance, for ``ilp``."""
        if self._types is _LAZY:
            self._types = ResourceTypeTable.build(self.stripped)
        return self._types

    def lift(self, res: SolveResult) -> SolveResult:
        """Carry a result on the stripped instance back to the original one;
        the dropped resources go to agent 0, so the instance needs an agent."""
        if res.allocation is None or len(self.keep) == self.inst.m:
            return res
        assignment = dict.fromkeys(sorted(set(range(self.inst.m)) - set(self.keep)), 0)
        assignment.update((self.keep[r], a) for r, a in res.allocation.assignment.items())
        return SolveResult(res.status, Allocation(assignment), res.welfare, res.nodes)

    def brute(self, notion: FairnessNotion, goal: EfficiencyGoal, budget: int) -> SolveResult:
        """Brute force on the stripped instance, lifted back; without agents
        there is no agent 0 to lift to, so the instance is scanned as it is."""
        if not self.has_agents:
            return brute_force(self.inst, notion, goal, budget)
        return self.lift(brute_force(self.stripped, notion, goal, budget))


def analyze(inst: Instance) -> Analysis:
    return Analysis(inst)


@dataclass(frozen=True)
class Route:
    """A row of the route table.  A search row also has ``bound``, the most
    nodes it visits on an analysis under a goal, and ``cost``, its fixed
    seconds and seconds per node of that bound under a goal; ``exact`` marks
    a bound that the search may reach, so auto skips the row when the bound
    exceeds the budget.  A closed form has neither.  ``final`` marks a row
    whose infeasible answer rules out every allocation (see ``settles``)."""

    name: str
    applies: Callable[[Analysis, FairnessNotion, EfficiencyGoal], bool]
    run: Callable[[Analysis, FairnessNotion, EfficiencyGoal, int], SolveResult]
    bound: Optional[Callable[[Analysis, EfficiencyGoal], float]] = None
    cost: Optional[Callable[[EfficiencyGoal], tuple[float, float]]] = None
    exact: bool = False
    final: Callable[[Analysis], bool] = lambda a: False

    def settles(self, a: Analysis, notion: FairnessNotion) -> bool:
        """Whether an infeasible answer rules out every allocation.  Under
        strict fairness and one shared valuation every row's does: each answers
        the complete question, a source can take what a fair partial allocation
        leaves, and no cycle is fair."""
        return (notion is STRICT and a.identical) or self.final(a)

    def fallback(self, a: Analysis, notion: FairnessNotion, goal: EfficiencyGoal,
                 brute: Estimate) -> float:
        """The MaxWelfare fallback's seconds (``brute``'s) in this row's estimate:
        none when an infeasible answer settles the solve or cannot come."""
        unsettled = goal is WELFARE and not self.settles(a, notion)
        # when nothing has value, the empty allocation is weakly fair
        return brute.seconds if unsettled and not (notion is WEAK and a.stripped.m == 0) else 0.0


# In automatic order: the closed forms, then the searches.  The run functions
# look solvers up by module name at call time, so a wrapper installed on this
# module's attribute sees the call.
ROUTES = (
    Route("immediate-infeasible",
          lambda a, notion, goal: notion is STRICT and a.identical and not a.acyclic
          and a.has_agents,
          lambda a, notion, goal, budget: SolveResult.infeasible()),
    Route("alg1",
          lambda a, notion, goal: notion is STRICT and a.identical and a.zero_one
          and a.has_agents,
          lambda a, notion, goal, budget: a.lift(solve_sgef_id01(a.stripped, a.graph))),
    Route("dag",
          lambda a, notion, goal: notion is WEAK and a.acyclic and a.has_agents
          and (goal is COMPLETE or a.identical),
          lambda a, notion, goal, budget: solve_gef_dag(a.inst, a.graph)),
    Route("manyvalues",
          lambda a, notion, goal: a.identical and a.acyclic and a.has_agents
          and a.prefs.u_diff > a.inst.n,
          lambda a, notion, goal, budget:
          a.lift(solve_sgef_identical_manyvalues(a.stripped, a.graph))),
    Route("scc-id01",
          lambda a, notion, goal: notion is WEAK and a.identical and a.zero_one
          and a.scc_like and a.has_agents,
          lambda a, notion, goal, budget: a.lift(solve_gef_id01_scc(a.stripped))),
    Route("alg2",
          lambda a, notion, goal: notion is WEAK and goal is PARETO and a.acyclic,
          lambda a, notion, goal, budget: solve_efficient_dag(a.inst)),
    # The searches.  Costs were measured on a 2-CPU machine (numpy kernels,
    # Python 3.11.7): each search row that applies to a search solve of the
    # benchmark's routed-mix corpus was timed after analysis (best of 9), and
    # the constants were picked from a coarse grid around the measured
    # medians so that the rows they choose on seeds 1 and 3 take the least
    # total time.  On seeds 5 and 7 the rows chosen take 49 ms, first-row
    # routing 123 ms, and the fastest row of each solve 44 ms.  The grid told
    # an ilp fixed cost of 60 us from the kernel's 90 us by 0.3 % only; at
    # 90 us the ilp's least bound rules it out of most small complete solves
    # before its type table is built.  A bound is the most nodes a search can
    # count, and pruning keeps most of them from being visited, so the
    # kernel's and the ilp's costs per node of the bound are far below those
    # of a visited node; struct-fpt's (about 100 us per pattern) only sizes
    # its record.  Pareto brute force's (400 us, 200 ns) overstate its
    # one-table scan about fourfold until the search costs are re-fitted.
    Route("sgef-fpt",
          lambda a, notion, goal: notion is STRICT and a.has_agents
          and (goal is COMPLETE or a.identical),
          lambda a, notion, goal, budget:
          a.lift(solve_sgef_fpt_resources(a.stripped, a.sgef_owners, budget)),
          bound=lambda a, goal: sgef_fpt_search_size(a.sgef_owners, a.stripped.m),
          cost=lambda goal: (90e-6, 2e-9), exact=True, final=lambda a: a.sgef_owners is None),
    Route("ident-enum",
          lambda a, notion, goal: a.identical and a.scc_like and a.has_agents,
          lambda a, notion, goal, budget:
          a.lift(solve_identical_enum(a.stripped, notion, budget)),
          bound=lambda a, goal: 0 if a.stripped.n > a.stripped.m > 0
          else a.stripped.n ** a.stripped.m,
          cost=lambda goal: (90e-6, 2e-9), exact=True),
    Route("struct-fpt",
          lambda a, notion, goal: notion is WEAK and a.identical and a.has_agents,
          lambda a, notion, goal, budget:
          a.lift(solve_gef_identical_structures(a.stripped, a.graph, budget)),
          # no node when there is nothing to deal; otherwise no cheap bound
          bound=lambda a, goal: 0 if a.stripped.m == 0 else math.inf,
          cost=lambda goal: (100e-6, 100e-6)),
    Route("ilp",
          lambda a, notion, goal: a.has_agents
          and (goal is COMPLETE or a.identical or a.zero_one),
          lambda a, notion, goal, budget:
          a.lift(solve_ilp(a.stripped, notion, budget=budget, goal=goal, table=a.types)),
          bound=lambda a, goal: ilp_search_size(a.stripped.n, a.types, goal),
          cost=lambda goal: (90e-6, 0.5e-6)),
    Route("brute",
          lambda a, notion, goal: True,
          lambda a, notion, goal, budget: a.brute(notion, goal, budget),
          bound=lambda a, goal: (a.stripped.n + (goal is not COMPLETE)) ** a.stripped.m,
          cost=lambda goal: (400e-6, 200e-9) if goal is PARETO else (90e-6, 2e-9),
          final=lambda a: True),
)
ROUTE = {route.name: route for route in ROUTES}
ALGORITHMS = ("auto",) + tuple(ROUTE)


def estimates(
    a: Analysis, notion: FairnessNotion, goal: EfficiencyGoal, budget: int
) -> dict[str, Estimate]:
    """The estimate of every search row that applies, in row order.  Empty
    when ``brute``, the last row, is the only one; ``ilp`` is left out when a
    lower bound on its estimate already exceeds that of a row whose bound
    fits ``budget``."""
    *rows, last = [r for r in ROUTES if r.bound is not None and r.applies(a, notion, goal)]
    if not rows:
        return {}

    def estimate(route: Route, bound: float, fallback: float = 0.0) -> Estimate:
        fixed, per_node = route.cost(goal)
        seconds = fixed + per_node * max(0, min(bound, budget)) if bound else NO_SEARCH_S
        return Estimate(bound, seconds + fallback)

    brute = estimate(last, last.bound(a, goal))
    est = {}
    for route in rows:
        fallback = route.fallback(a, notion, goal, brute)
        if route.name == "ilp":
            # the type table costs more than every other bound: skip it when
            # the ilp loses even at its least bound, one type dealt to every
            # agent that may take it (ilp is the last row before brute)
            n, m = a.stripped.n, a.stripped.m
            least = 1 if m == 0 else 1 + n * (math.comb(m + n - 1, n - 1) if goal is COMPLETE else 1)
            best = min([e.seconds for e in (*est.values(), brute) if e.bound <= budget],
                       default=math.inf)
            if estimate(route, least, fallback).seconds > best:
                continue
        est[route.name] = estimate(route, route.bound(a, goal), fallback)
    est["brute"] = brute
    return est


def select_algorithm(
    a: Analysis, notion: FairnessNotion, goal: EfficiencyGoal, budget: int = DEFAULT_BUDGET
) -> str:
    """Name of the first route the automatic solve runs: the first closed
    form that applies, else the cheapest search whose bound fits ``budget``,
    else the first search in row order that may still answer within it."""
    if not a.has_agents or (goal is not COMPLETE and a.inst.m == 0):
        # brute is the one row that answers every goal without agents, and
        # with nothing to hand out the empty allocation is the Pareto and
        # welfare answer, which no class-based route reports
        return "brute"
    for route in ROUTES:
        if route.bound is not None:
            break
        if route.applies(a, notion, goal):
            return route.name
    est = estimates(a, notion, goal, budget)
    fits = [name for name, e in est.items() if e.bound <= budget]
    if fits:
        return min(fits, key=lambda name: est[name].seconds)
    return next((name for name in est if not ROUTE[name].exact), "brute")


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
    forced = algorithm
    if algorithm == "auto":
        algorithm = select_algorithm(a, notion, goal, budget)
    elif not ROUTE[algorithm].applies(a, notion, goal):
        raise GuardError(
            f"{algorithm} does not serve this instance with "
            f"notion={notion.value}, goal={goal.value}"
        )
    route = ROUTE[algorithm]
    # forced brute force is the oracle: it scans the original instance
    res = (brute_force(inst, notion, goal, budget) if forced == "brute"
           else route.run(a, notion, goal, budget))
    chain, nodes = algorithm, res.nodes
    if goal is WELFARE and res.status is Status.INFEASIBLE and not route.settles(a, notion):
        res = a.brute(notion, goal, budget - nodes)
        chain += "->brute"
        nodes += res.nodes
    return SolveResult(res.status, res.allocation, res.welfare, nodes, chain)
