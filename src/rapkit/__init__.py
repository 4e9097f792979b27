"""Exact and simulated expected values for random assignment problems.

An instance is an m-by-n cost matrix with a fixed set of forced zeros
and independent exponential mean-1 entries elsewhere, of which an
optimal k-assignment (k independent positions of minimum total cost)
is taken.  The package computes the exact expected optimal cost by
closed formulas and by an independent symbolic recursion, estimates it
and several usage probabilities by seeded Monte Carlo, and exposes the
underlying combinatorics (exact solvers, zero covers, cover profiles).
"""

from .covers import (
    CoverLattice,
    CoverProfile,
    LineCover,
    cover_coefficients,
    cover_lattice,
    cover_profile,
    forced_cover_lines,
    max_independent_zeros,
    row_excluded_profile,
)
from .formulas import (
    cover_formula_value,
    cs_value,
    min_entry_usage_probability,
    parisi_value,
    row_inclusion_probability,
    triangle_integral,
)
from .model import (
    Assignment,
    BudgetExceededError,
    InvalidInstanceError,
    RapError,
    RapInstance,
    SampledMatrix,
    ZeroPattern,
    insert_zero,
    instance,
    load_instance,
    parse_instance,
    rational_from_json,
    rational_to_json,
    serialize_instance,
)
from .montecarlo import (
    EstimateReport,
    estimate_entry_usage,
    estimate_min_entry_usage,
    estimate_row_usage,
    estimate_value,
    sample_matrix,
)
from .oracle import DEFAULT_NODE_BUDGET, oracle_expected_value, oracle_node_count
from .solver import (
    SolveResult,
    brute_force_k_assignment,
    solve_k_assignment,
)

__version__ = "1.0.0"

__all__ = [
    "Assignment",
    "BudgetExceededError",
    "CoverLattice",
    "CoverProfile",
    "DEFAULT_NODE_BUDGET",
    "EstimateReport",
    "InvalidInstanceError",
    "LineCover",
    "RapError",
    "RapInstance",
    "SampledMatrix",
    "SolveResult",
    "ZeroPattern",
    "brute_force_k_assignment",
    "cover_coefficients",
    "cover_formula_value",
    "cover_lattice",
    "cover_profile",
    "cs_value",
    "estimate_entry_usage",
    "estimate_min_entry_usage",
    "estimate_row_usage",
    "estimate_value",
    "forced_cover_lines",
    "insert_zero",
    "instance",
    "load_instance",
    "max_independent_zeros",
    "min_entry_usage_probability",
    "oracle_expected_value",
    "oracle_node_count",
    "parisi_value",
    "parse_instance",
    "rational_from_json",
    "rational_to_json",
    "row_excluded_profile",
    "row_inclusion_probability",
    "sample_matrix",
    "serialize_instance",
    "solve_k_assignment",
    "triangle_integral",
]
