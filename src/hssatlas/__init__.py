"""Exact minimal-atlas invariants for compact Hermitian symmetric spaces.

Parse a product of the four classical families (or projective-space
sugar), then compute -- all in exact integer arithmetic -- the degree of
its canonical projective embedding, its normalized symplectic volume,
its Gamma invariant, and the resulting classification of the minimal
number of Darboux charts S_B.
"""

from .arith import (
    FactorialRatio,
    NonIntegralRatio,
    eval_ratio_direct,
    eval_ratio_legendre,
    factorial,
)
from .atlas import (
    CLAUSE_EXACT,
    CLAUSE_RANGE,
    MAX_SCAN_ROWS,
    Refinement,
    RefinementEntry,
    RefinementTable,
    Report,
    SBResult,
    ScanResult,
    ScanRow,
    classify,
    report,
    threshold_scan,
)
from .invariants import (
    NormalizedVolume,
    degree,
    degree_irreducible,
    degree_ratio,
    gamma,
    gromov_width_units,
    multinomial_ratio,
    volume_units,
)
from .oracle import (
    BRUTE_FORCE_CELL_LIMIT,
    Diagnostic,
    ISOMORPHISM_PAIRS,
    RectShape,
    ShapeTooLarge,
    check_type_i_degree,
    count_syt_bruteforce,
    count_syt_hook,
    isomorphism_diagnostics,
)
from .spaces import (
    EmptyProduct,
    InvalidParams,
    IrreducibleSpace,
    SpaceExpr,
    SpaceSyntaxError,
    parse,
    projective_space,
    type_i,
    type_ii,
    type_iii,
    type_iv,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_CELL_LIMIT",
    "CLAUSE_EXACT",
    "CLAUSE_RANGE",
    "Diagnostic",
    "EmptyProduct",
    "FactorialRatio",
    "ISOMORPHISM_PAIRS",
    "InvalidParams",
    "IrreducibleSpace",
    "MAX_SCAN_ROWS",
    "NonIntegralRatio",
    "NormalizedVolume",
    "RectShape",
    "Refinement",
    "RefinementEntry",
    "RefinementTable",
    "Report",
    "SBResult",
    "ScanResult",
    "ScanRow",
    "ShapeTooLarge",
    "SpaceExpr",
    "SpaceSyntaxError",
    "check_type_i_degree",
    "classify",
    "count_syt_bruteforce",
    "count_syt_hook",
    "degree",
    "degree_irreducible",
    "degree_ratio",
    "eval_ratio_direct",
    "eval_ratio_legendre",
    "factorial",
    "gamma",
    "gromov_width_units",
    "isomorphism_diagnostics",
    "multinomial_ratio",
    "parse",
    "projective_space",
    "report",
    "threshold_scan",
    "type_i",
    "type_ii",
    "type_iii",
    "type_iv",
    "volume_units",
]
