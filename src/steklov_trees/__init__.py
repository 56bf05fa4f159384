"""Steklov spectra of trees with leaf boundary.

The spectrum and its first nonzero eigenvalue come from one form, the
leaf distance form P(-D/2)P.  Two independent routes certify it: the
Laplacian Schur complement solved by LAPACK, and scalar root equations
for spiders and double spiders.  Also the classification of the
maximizers of that eigenvalue among trees of fixed order and odd
diameter, and a brute-force enumeration harness that certifies the
classification at small orders.  Names from reduce import their module on
first access, as no subcommand but `steklov reduce` runs it.
"""

import importlib

from .trees import (
    DoubleSpiderProfile,
    SpiderProfile,
    Tree,
    canonical_code,
    diameter,
    format_tree_text,
    leaf_set,
    make_double_spider,
    make_path,
    make_spider,
    parse_tree,
    parse_tree_text,
    recognize_double_spider,
    recognize_spider,
    render_shorthand,
)
from .spectral import (
    Spectrum,
    dtn_matrix,
    lambda2_numeric,
    laplacian_matrix,
    leaf_distance_matrix,
    steklov_spectrum,
)
from .roots import (
    ThresholdData,
    double_spider_rho,
    q_range_integer,
    spider_lambda2,
    threshold_data,
)
from .classify import (
    ClassificationResult,
    classify,
)
from .verify import (
    UnimodalityReport,
    VerificationReport,
    verify_classification,
    verify_unimodality,
)

_LAZY = dict.fromkeys(["arm_transfer", "balance_side_step", "dominating_double_spider", "greedy_ascent_trace"], "reduce")


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])


__all__ = [
    "ClassificationResult",
    "DoubleSpiderProfile",
    "Spectrum",
    "SpiderProfile",
    "ThresholdData",
    "Tree",
    "UnimodalityReport",
    "VerificationReport",
    "arm_transfer",
    "balance_side_step",
    "canonical_code",
    "classify",
    "diameter",
    "dominating_double_spider",
    "double_spider_rho",
    "dtn_matrix",
    "format_tree_text",
    "greedy_ascent_trace",
    "lambda2_numeric",
    "laplacian_matrix",
    "leaf_distance_matrix",
    "leaf_set",
    "make_double_spider",
    "make_path",
    "make_spider",
    "parse_tree",
    "parse_tree_text",
    "q_range_integer",
    "recognize_double_spider",
    "recognize_spider",
    "render_shorthand",
    "spider_lambda2",
    "steklov_spectrum",
    "threshold_data",
    "verify_classification",
    "verify_unimodality",
]
