"""Bordered invariants of framed knot complements over F2 and splice L-space detection."""

from .algebra import multiply, swap_and_merge
from .boxtensor import ChainComplex, box_tensor
from .cfk import (
    KnotComplex,
    SimplifiedBases,
    knot_invariants,
    parse_complex,
    serialize_complex,
    simplify,
    staircase,
    unknot,
    validate_complex,
)
from .homology import GradedRanks, graded_homology, lspace_verdict
from .splice import (
    OUT_OF_SCOPE,
    InvariantViolation,
    SpliceReport,
    conjecture_check,
    predict_lspace,
    splice_report,
    survey,
    survey_summary,
)
from .typea import TypeAModule, derive_cfa, ops_text, validate_cfa
from .typed import (
    TypeDModule,
    bk_prime,
    build_cfd,
    durability,
    find_durable_pairs,
    solve_gradings,
    to_dot,
    validate_type_d,
)

__all__ = [
    "ChainComplex",
    "GradedRanks",
    "InvariantViolation",
    "KnotComplex",
    "OUT_OF_SCOPE",
    "SimplifiedBases",
    "SpliceReport",
    "TypeAModule",
    "TypeDModule",
    "bk_prime",
    "box_tensor",
    "build_cfd",
    "conjecture_check",
    "derive_cfa",
    "durability",
    "find_durable_pairs",
    "graded_homology",
    "knot_invariants",
    "lspace_verdict",
    "multiply",
    "ops_text",
    "parse_complex",
    "predict_lspace",
    "serialize_complex",
    "simplify",
    "solve_gradings",
    "splice_report",
    "staircase",
    "survey",
    "survey_summary",
    "swap_and_merge",
    "to_dot",
    "unknot",
    "validate_cfa",
    "validate_complex",
    "validate_type_d",
]
