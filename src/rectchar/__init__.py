"""Exact normalized characters of symmetric groups on rectangular diagrams.

Three independent evaluation paths are exposed: the Murnaghan-Nakayama
recursion over arbitrary shapes, Stanley's signed factorization sum
specialized to rectangles, and closed product formulas for single cycles.
All arithmetic is exact; no floats appear anywhere.
"""

from .closed import (
    ParityCase,
    ch_rect_fast,
    closed_char_ed,
    coeff_f,
    coeff_g,
    corollary_poly,
    integrality_witness,
    leading_square_coeff,
    minus_one_col_char,
    minus_one_row_char,
)
from .exact import (
    HalfInt,
    Int,
    Rat,
    Scalar,
    ZeroFactorInReciprocalRange,
    catalan,
    double_factorial,
    double_rising_factorial,
    extended_product,
    falling_factorial,
)
from .mn import (
    OutOfRange,
    SizeMismatch,
    character_mn,
    normalized_character,
    one_cycle_character,
)
from ._poly import BiPoly, DEPoly, JNPoly
from .stanley import (
    BasisMismatch,
    GroupRingElem,
    Perm,
    cycle_type_representative,
    decompose_even_basis,
    jm_factorization_check,
    stanley_eval,
    stanley_poly,
    substitute_ed,
)
from .young import (
    Partition,
    RimHook,
    dim_f,
    partitions,
    rectangle,
    rim_hooks_of_length,
    transpose,
)

__version__ = "0.1.0"

__all__ = [
    "BasisMismatch",
    "BiPoly",
    "DEPoly",
    "GroupRingElem",
    "HalfInt",
    "Int",
    "JNPoly",
    "OutOfRange",
    "ParityCase",
    "Partition",
    "Perm",
    "Rat",
    "RimHook",
    "Scalar",
    "SizeMismatch",
    "ZeroFactorInReciprocalRange",
    "catalan",
    "ch_rect_fast",
    "character_mn",
    "closed_char_ed",
    "coeff_f",
    "coeff_g",
    "corollary_poly",
    "cycle_type_representative",
    "decompose_even_basis",
    "dim_f",
    "double_factorial",
    "double_rising_factorial",
    "extended_product",
    "falling_factorial",
    "integrality_witness",
    "jm_factorization_check",
    "leading_square_coeff",
    "minus_one_col_char",
    "minus_one_row_char",
    "normalized_character",
    "one_cycle_character",
    "partitions",
    "rectangle",
    "rim_hooks_of_length",
    "stanley_eval",
    "stanley_poly",
    "substitute_ed",
    "transpose",
    "__version__",
]
