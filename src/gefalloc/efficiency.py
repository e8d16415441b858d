"""Pareto-efficiency and welfare-maximization goals: the checks, and the
solve entry point for these goals (routing lives in ``dispatch``)."""

from __future__ import annotations

from typing import Optional

from . import _kernels
from .dispatch import solve
from .exact import DEFAULT_BUDGET
from .model import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    SolveResult,
    utility_profile,
)


def is_pareto_efficient(
    inst: Instance, alloc: Allocation, budget: int = DEFAULT_BUDGET
) -> Optional[bool]:
    """Whether no partial allocation dominates ``alloc``; ``None`` when the
    scan's work would pass ``budget`` before it can tell."""
    status = _kernels.first_dominating(inst.utilities, utility_profile(inst, alloc), budget)
    return None if status == 2 else status == 1


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
