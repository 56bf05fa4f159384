"""Steklov spectra of trees with leaf boundary.

The spectrum and its first nonzero eigenvalue come from one form, the
leaf distance form P(-D/2)P.  Two independent routes certify it: the
Laplacian Schur complement solved by LAPACK, and scalar root equations
for spiders and double spiders.  Also the classification of the
maximizers of that eigenvalue among trees of fixed order and odd
diameter, and a brute-force enumeration harness that certifies the
classification at small orders.
"""

from .trees import (
    ASParams,
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    canonical_code,
    diameter,
    format_tree_text,
    leaf_set,
    make_as_tree,
    make_double_spider,
    make_path,
    make_spider,
    parse_tree,
    parse_tree_text,
    recognize_double_spider,
    recognize_spider,
    render_shorthand,
    tree_centers,
)
from .spectral import (
    Spectrum,
    dtn_matrix,
    lambda2_numeric,
    laplacian_matrix,
    leaf_distance_matrix,
    steklov_spectrum,
)
from .flux import (
    BoundaryFlux,
    CutDecomposition,
    cut_sums,
    flux_potential,
    q_form,
)
from .roots import (
    ThresholdData,
    double_spider_rho,
    q_range_integer,
    spider_lambda2,
    threshold_data,
)
from .classify import (
    CandidatePair,
    ClassificationResult,
    candidate_profiles,
    classify,
)
from .reduce import (
    arm_transfer,
    balance_main_step,
    balance_side_step,
    dominating_double_spider,
    greedy_ascent_trace,
)
from .verify import (
    UnimodalityReport,
    VerificationReport,
    verify_classification,
    verify_unimodality,
)

__all__ = [
    "ASParams",
    "BoundaryFlux",
    "CandidatePair",
    "ClassificationResult",
    "CutDecomposition",
    "DoubleSpiderProfile",
    "Spectrum",
    "SpiderProfile",
    "ThresholdData",
    "Tree",
    "UnimodalityReport",
    "VerificationReport",
    "arm_transfer",
    "balance_main_step",
    "balance_side_step",
    "candidate_profiles",
    "canonical_code",
    "classify",
    "cut_sums",
    "diameter",
    "dominating_double_spider",
    "double_spider_rho",
    "dtn_matrix",
    "flux_potential",
    "format_tree_text",
    "greedy_ascent_trace",
    "lambda2_numeric",
    "laplacian_matrix",
    "leaf_distance_matrix",
    "leaf_set",
    "make_as_tree",
    "make_double_spider",
    "make_path",
    "make_spider",
    "parse_tree",
    "parse_tree_text",
    "q_form",
    "q_range_integer",
    "recognize_double_spider",
    "recognize_spider",
    "render_shorthand",
    "spider_lambda2",
    "steklov_spectrum",
    "threshold_data",
    "tree_centers",
    "verify_classification",
    "verify_unimodality",
]
