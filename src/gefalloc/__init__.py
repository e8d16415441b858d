"""Exact solvers for fair allocation of indivisible resources under
graph-based envy-freeness, with routing to the fastest applicable
algorithm, hardness-style instance generators, and a CLI."""

from .dispatch import ALGORITHMS, ROUTES, analyze, select_algorithm, solve
from .efficiency import is_pareto_efficient, solve_efficient
from .errors import GuardError, ValidationError
from .exact import DEFAULT_BUDGET
from .generators import (
    BinPackingInput,
    CliqueInput,
    clique_oracle,
    find_clique,
    find_packing,
    gen_from_binpacking,
    gen_from_clique,
    gen_random,
)
from .graphs import (
    Condensation,
    GraphClass,
    GraphKind,
    classify_graph,
    scc_condensation,
)
from .model import (
    Allocation,
    EfficiencyGoal,
    FairnessNotion,
    Instance,
    PreferenceClass,
    PreferenceKind,
    SolveResult,
    Status,
    allocation_document,
    classify_preferences,
    is_complete,
    parse_allocation,
    parse_validate,
    strip_zero_resources,
    utilitarian_welfare,
    utility_profile,
    verify_fairness,
)
from .structures import (
    ColoredDigraph,
    Structure,
    directed_colored_subiso,
)

__version__ = "0.1.0"
