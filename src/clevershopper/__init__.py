"""Buying a set of books across shops with threshold discounts.

Each shop s grants a discount d_s once the spend there reaches t_s; the
goal is one shop per book minimizing total cost.  The package bundles a
brute-force reference solver, exact solvers for structured regimes (few
books, few shops, degree-2 shops, unit prices), a greedy approximation
for fixed prices, hardness-flavoured instance generators, file formats,
and a CLI.
"""

from .approx import greedy_max_discount
from .bench import ALGORITHM_NAMES, run_algorithm, run_bench
from .errors import (
    CleverShopperError,
    DanglingIndex,
    EmptyInput,
    InputError,
    NegativeValue,
    ParseError,
    ResourceLimitError,
)
from .exact import (
    StarDegreeBound,
    build_discount_graph,
    fstar_unit_price_min_cost,
    matching2_min_cost,
    max_fstar_subgraph,
    price_vector_dp,
    price_vector_min_cost,
    subset_dp_min_cost,
)
from .fileio import (
    CheckReport,
    check_solution,
    parse_dimacs,
    parse_graph,
    parse_instance,
    parse_solution,
    parse_weights,
    serialize_instance,
    serialize_solution,
)
from .matching import WeightedEdge, WeightedGraph, max_weight_matching
from .model import (
    DiscountRule,
    Instance,
    Offer,
    SolveResult,
    discount_earned,
    evaluate_assignment,
    make_instance,
)
from .oracle import brute_force_min_cost
from .reductions import (
    DiscountModel,
    GeneratedInstance,
    from_bin_packing,
    from_max3sat,
    from_partition,
    from_perfect_code,
    random_instance,
    random_x3c,
    x3c_or_composition,
)
from .sources import (
    CnfFormula,
    SimpleGraph,
    X3CInstance,
    can_pack_bins,
    has_balanced_partition,
    has_neighborhood_packing,
    max_satisfied_clauses,
    x3c_solvable,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "CheckReport",
    "CleverShopperError",
    "CnfFormula",
    "DanglingIndex",
    "DiscountModel",
    "DiscountRule",
    "EmptyInput",
    "GeneratedInstance",
    "InputError",
    "Instance",
    "NegativeValue",
    "Offer",
    "ParseError",
    "ResourceLimitError",
    "SimpleGraph",
    "SolveResult",
    "StarDegreeBound",
    "WeightedEdge",
    "WeightedGraph",
    "X3CInstance",
    "brute_force_min_cost",
    "build_discount_graph",
    "can_pack_bins",
    "check_solution",
    "discount_earned",
    "evaluate_assignment",
    "from_bin_packing",
    "from_max3sat",
    "from_partition",
    "from_perfect_code",
    "fstar_unit_price_min_cost",
    "greedy_max_discount",
    "has_balanced_partition",
    "has_neighborhood_packing",
    "make_instance",
    "matching2_min_cost",
    "max_fstar_subgraph",
    "max_satisfied_clauses",
    "max_weight_matching",
    "parse_dimacs",
    "parse_graph",
    "parse_instance",
    "parse_solution",
    "parse_weights",
    "price_vector_dp",
    "price_vector_min_cost",
    "random_instance",
    "random_x3c",
    "run_algorithm",
    "run_bench",
    "serialize_instance",
    "serialize_solution",
    "subset_dp_min_cost",
    "x3c_or_composition",
    "x3c_solvable",
]
