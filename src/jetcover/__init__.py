"""Certified computation with contracting IFS, covering certificates,
truncated jets, and the constructive jet-space realizer behind blenders
and parablenders."""

from .blender import (
    SkewSystem,
    nearly_affine_check,
    realize_curve_jet,
    realize_point,
    render_unstable_union,
    verify_example_covering,
)
from .boxes import Box, Interval
from .covering import (
    Certificate,
    CoveringFailure,
    certify_covering,
    check_certificate,
    inverse_image_box,
)
from .flatpoly import (
    FlatPolyResult,
    find_flat_poly,
    lambda_threshold,
    minimal_flat_poly,
    scale_to_p,
)
from .ifs import (
    AffineMap,
    IFSystem,
    decide_two_map_line,
    evaluate_word,
    limit_set_cloud,
    standard_pair,
    word_fixed_point,
)
from .jetcovering import (
    JetCoveringSystem,
    RealizationResult,
    build_system,
    certify_delta_covering,
    certify_membership,
    realize_jet,
    residual_bound,
    verify_semiconjugacy,
)
from .jets import (
    Jet,
    ParamAffineFamily1D,
    continuation_jet,
    jet_mul,
    lift_family,
    reverse_jet,
    standard_families,
)
from .simplex import LPProblem, LPSolution, lp_solve

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Box",
    "Certificate",
    "CoveringFailure",
    "FlatPolyResult",
    "IFSystem",
    "Interval",
    "Jet",
    "JetCoveringSystem",
    "LPProblem",
    "LPSolution",
    "ParamAffineFamily1D",
    "RealizationResult",
    "SkewSystem",
    "build_system",
    "certify_covering",
    "certify_delta_covering",
    "certify_membership",
    "check_certificate",
    "continuation_jet",
    "decide_two_map_line",
    "evaluate_word",
    "find_flat_poly",
    "inverse_image_box",
    "jet_mul",
    "lambda_threshold",
    "lift_family",
    "limit_set_cloud",
    "lp_solve",
    "minimal_flat_poly",
    "nearly_affine_check",
    "realize_curve_jet",
    "realize_jet",
    "realize_point",
    "render_unstable_union",
    "residual_bound",
    "reverse_jet",
    "scale_to_p",
    "standard_families",
    "standard_pair",
    "verify_example_covering",
    "verify_semiconjugacy",
    "word_fixed_point",
]
