"""Pareto-efficiency and welfare-maximization goals: the checks, and the
solve entry point for these goals (routing lives in ``dispatch``)."""

from __future__ import annotations

from .dispatch import solve
from .errors import BudgetExceededError
from .exact import DEFAULT_BUDGET
from .model import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    SolveResult,
    enumerate_partial_allocations,
    utility_profile,
)


def max_welfare_bound(inst: Instance) -> int:
    """Sum of column maxima: no allocation can beat it."""
    if inst.utilities.size == 0:
        return 0
    return int(inst.utilities.max(axis=0).sum())


def is_pareto_efficient(inst: Instance, alloc: Allocation, budget: int = DEFAULT_BUDGET) -> bool:
    """Exhaustive domination check against every partial allocation."""
    base = utility_profile(inst, alloc)
    nodes = 0
    for other in enumerate_partial_allocations(inst):
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes)
        p = utility_profile(inst, other)
        if all(x >= y for x, y in zip(p, base)) and any(x > y for x, y in zip(p, base)):
            return False
    return True


def solve_efficient(
    inst: Instance,
    notion: FairnessNotion,
    goal: EfficiencyGoal,
    budget: int = DEFAULT_BUDGET,
) -> SolveResult:
    """Automatic solve of a Pareto or MaxWelfare request."""
    if goal is EfficiencyGoal.COMPLETE:
        raise ValueError("solve_efficient handles Pareto and MaxWelfare goals")
    return solve(inst, notion, goal, budget=budget)
