"""Exact solvers for fair allocation of indivisible resources under
graph-based envy-freeness, with routing to the fastest applicable
algorithm, hardness-style instance generators, and a CLI."""

from .dispatch import ALGORITHMS, ROUTES, analyze, select_algorithm, solve
from .efficiency import is_pareto_efficient, max_welfare_bound, solve_efficient
from .errors import BudgetExceededError, GuardError, ValidationError
from .exact import (
    DEFAULT_BUDGET,
    IlpModel,
    ResourceTypeTable,
    brute_force,
    build_type_ilp,
    prune_large_sccs,
    solve_identical_enum,
    solve_ilp,
    solve_sgef_fpt_resources,
    solve_type_ilp,
)
from .generators import (
    BinPackingInput,
    CliqueInput,
    clique_oracle,
    find_clique,
    find_packing,
    gen_from_binpacking,
    gen_from_clique,
    gen_random,
    planted_clique_allocation,
    planted_packing_allocation,
)
from .graphs import (
    Condensation,
    GraphClass,
    GraphKind,
    classify_graph,
    longest_path_labels,
    scc_condensation,
    topological_order,
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
    dominates,
    is_complete,
    parse_allocation,
    parse_validate,
    strip_zero_resources,
    utilitarian_welfare,
    utility_profile,
    verify_fairness,
)
from .poly import (
    solve_efficient_dag,
    solve_gef_dag,
    solve_gef_id01_scc,
    solve_sgef_id01,
    solve_sgef_identical_manyvalues,
)
from .structures import (
    ColoredDigraph,
    Structure,
    UndirectedGraph,
    directed_colored_subiso,
    enumerate_structures,
    gadget_reduce,
    solve_gef_identical_structures,
    undirected_subiso,
)

__version__ = "0.1.0"
