"""Exact arithmetic on unlabeled graphs under disjoint union and the
cartesian product.

The package treats graph families as semirings with a vertex-count degree
map: counting members, connected members, and cartesian primes per degree;
inverting the Euler transform; factoring connected graphs into cartesian
primes; evaluating divisor-style arithmetic functions; and checking the
finite-degree inequalities that govern how the three count sequences grow.
Everything is computed with integers and fractions, never floats.
"""

from .counting import (CountSequence, SignedSequence, euler_inverse,
                       euler_transform, graph_connected_totals, graph_totals,
                       inversion_coefficients, prime_counts_by_factorization)
from .errors import BoxprimeError, CapacityError, DomainError, ParseError
from .expansion import (RationalPolynomial, connected_series_polynomial,
                        expansion_error_bound, expansion_error_report,
                        expansion_partial_sum, total_series_polynomial)
from .factor import factor_layers, factorize, is_cartesian_prime
from .functions import (coprime_count, evaluate, population_stats,
                        submultiplicativity_check)
from .graph6 import encode_graph6, parse_graph6
from .graphs import (Graph, canonical_form, canonical_key, cartesian_product,
                     complete_graph, cycle_graph, disjoint_union, empty_graph,
                     enumerate_connected, enumerate_graphs, is_connected,
                     path_graph, relabel)
from .semiring import (SemiringInstance, build_instance, closure_check,
                       instance_all_graphs, instance_even_edge,
                       instance_hamming, monotonicity_report,
                       self_complementary_count, self_complementary_identity)

__version__ = "0.1.0"

__all__ = [
    "BoxprimeError", "CapacityError", "DomainError", "ParseError",
    "Graph", "canonical_form", "canonical_key",
    "cartesian_product", "complete_graph", "cycle_graph", "disjoint_union",
    "empty_graph", "enumerate_connected", "enumerate_graphs", "is_connected",
    "path_graph", "relabel",
    "encode_graph6", "parse_graph6",
    "CountSequence", "SignedSequence", "euler_inverse", "euler_transform",
    "graph_connected_totals", "graph_totals", "inversion_coefficients",
    "prime_counts_by_factorization",
    "RationalPolynomial", "connected_series_polynomial",
    "expansion_error_bound", "expansion_error_report",
    "expansion_partial_sum", "total_series_polynomial",
    "factor_layers", "factorize", "is_cartesian_prime",
    "SemiringInstance", "build_instance", "closure_check",
    "instance_all_graphs", "instance_even_edge", "instance_hamming",
    "monotonicity_report",
    "self_complementary_count", "self_complementary_identity",
    "coprime_count", "evaluate", "population_stats",
    "submultiplicativity_check",
    "__version__",
]
