"""Exact perfect-matching covers of r-graphs.

Every r-graph has a cover of its all-ones edge vector by linearly
independent perfect matchings whose coefficients are integers or exactly
+1/2.  This package computes such covers (tight cut decomposition, per-leaf
solvers, class-preserving merging), verifies every clause independently,
and round-trips the result through an exact integer certificate format.
"""

from .certificate import (
    Certificate,
    CertificateError,
    FingerprintMismatch,
    LeafSummary,
    VerifyReport,
    build_certificate,
    certificate_solution,
    deserialize,
    serialize,
    verify_certificate,
    verify_cover,
)
from .cover import CoverSolution, exact_cover, terms_independent
from .decomposition import (
    ContractionMap,
    DecompositionTree,
    LeafClass,
    classify_leaf,
    contract_shore,
    decompose,
    find_nontrivial_tight_cut,
    is_petersen,
)
from .graphs import (
    Cut,
    MultiGraph,
    RGraphCheck,
    build_graph,
    cut_from_shore,
    is_r_graph,
    min_odd_cut,
    regular_degree,
)
from .leaf_solvers import (
    ClassificationError,
    brace_solve,
    brick_solve,
    petersen_solve,
)
from .matchings import (
    EnumerationOverflow,
    enumerate_pms,
    iter_pms,
    perfect_matching_without,
    pm_containing_edges,
    validate_perfect_matching,
)
from .merge import (
    improved_merge,
    pair_sequences,
    solve_r_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateError",
    "ClassificationError",
    "ContractionMap",
    "CoverSolution",
    "Cut",
    "DecompositionTree",
    "EnumerationOverflow",
    "FingerprintMismatch",
    "LeafClass",
    "LeafSummary",
    "MultiGraph",
    "RGraphCheck",
    "VerifyReport",
    "brace_solve",
    "brick_solve",
    "build_certificate",
    "build_graph",
    "certificate_solution",
    "classify_leaf",
    "contract_shore",
    "cut_from_shore",
    "decompose",
    "deserialize",
    "enumerate_pms",
    "exact_cover",
    "find_nontrivial_tight_cut",
    "improved_merge",
    "is_petersen",
    "is_r_graph",
    "iter_pms",
    "min_odd_cut",
    "pair_sequences",
    "perfect_matching_without",
    "petersen_solve",
    "pm_containing_edges",
    "regular_degree",
    "serialize",
    "solve_r_graph",
    "terms_independent",
    "validate_perfect_matching",
    "verify_certificate",
    "verify_cover",
]
