"""Exact relax-and-round toolkit for monotone constraint minimization.

Instances have weighted vertices, labels 0..q-1, and upward-closed
constraints; the objective is the weighted expected label and the
all-top labeling is always feasible.  The package provides the exact
convex-hull relaxation, grid rounding, canonical edge distributions
with smoothing, hypercube blowup instances, projection-game
composition and decoding, biased Fourier analysis, and bivariate
Gaussian stability bounds.  All combinatorial computations are exact
over ``fractions.Fraction``; the floating-point surfaces (SVD, the
Gaussian closed form) are documented where they occur.
"""

from .caps import CapExceeded, cap
from .model import (Instance, Predicate, Edge, EdgeRows, covering_predicate,
                    make_instance, validate_instance, assignment_cost,
                    is_feasible, brute_force_opt, check_solution,
                    upward_closure)
from .lp import LpSolution, build_lp, solve_lp, lp_value, val, \
    check_feasible_fractional, standard_hvc_lp
from .rounding import (PerturbedSolution, RoundResult, perturb,
                       perturb_point, round_solution, integrality_report,
                       grid_points)
from .distributions import (EdgeDistribution, extract_edge_distribution,
                            smooth, margin, min_atom, maximal_correlation,
                            cheeger_check)
from .dictators import (DictInstance, generate_dict, dictator_assignment,
                        dictator_weight, completeness_check, extract_TJ,
                        bucket_constant_opt, pseudo_random_check, dict_view)
from .unique_games import (UgInstance, validate_ug, ug_satisfied_weight,
                           ug_brute_force, compose, completeness_solution,
                           decode_labeling)
from .fourier import (BiasedFourierExpansion, biased_fourier, influences,
                      conditional_variance_influence)
from .gaussian import (gamma, gamma_mc, gamma_recursive, gamma_power,
                       check_gamma_inequalities)
from .randgen import (random_instance, random_cover_instance,
                      random_feasible_solution, random_subset_labels,
                      random_game, vc_edge, hvc, triangle_cover,
                      ternary_chain, twisted_cycle)
from .io import (ParseError, parse_instance, serialize_instance,
                 parse_solution, serialize_solution, parse_assignment,
                 serialize_assignment, parse_ug, serialize_ug,
                 parse_rational, format_rational)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "cap",
    "Instance", "Predicate", "Edge", "EdgeRows", "covering_predicate",
    "make_instance",
    "validate_instance", "assignment_cost", "is_feasible", "brute_force_opt",
    "check_solution", "upward_closure",
    "LpSolution", "build_lp", "solve_lp", "lp_value", "val",
    "check_feasible_fractional", "standard_hvc_lp",
    "PerturbedSolution", "RoundResult", "perturb", "perturb_point",
    "round_solution", "integrality_report", "grid_points",
    "EdgeDistribution", "extract_edge_distribution", "smooth", "margin",
    "min_atom", "maximal_correlation", "cheeger_check",
    "DictInstance", "generate_dict", "dictator_assignment",
    "dictator_weight", "completeness_check", "extract_TJ",
    "bucket_constant_opt", "pseudo_random_check", "dict_view",
    "UgInstance", "validate_ug", "ug_satisfied_weight", "ug_brute_force",
    "compose", "completeness_solution", "decode_labeling",
    "BiasedFourierExpansion", "biased_fourier", "influences",
    "conditional_variance_influence",
    "gamma", "gamma_mc", "gamma_recursive", "gamma_power",
    "check_gamma_inequalities",
    "random_instance", "random_cover_instance", "random_feasible_solution",
    "random_subset_labels", "random_game", "vc_edge", "hvc",
    "triangle_cover", "ternary_chain", "twisted_cycle",
    "ParseError", "parse_instance", "serialize_instance", "parse_solution",
    "serialize_solution", "parse_assignment", "serialize_assignment",
    "parse_ug", "serialize_ug", "parse_rational", "format_rational",
    "__version__",
]
