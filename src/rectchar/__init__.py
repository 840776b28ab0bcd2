"""Exact normalized characters of symmetric groups on rectangular diagrams.

Three independent evaluation paths are exposed: the Murnaghan-Nakayama
recursion over arbitrary shapes, Stanley's signed factorization sum
specialized to rectangles, and closed product formulas for single cycles.
All arithmetic is exact; no floats appear anywhere.  A number argument
must be an int, or an int or a Fraction where a rational value makes
sense; rectchar.exact states that rule once, and anything else raises
TypeError.
"""

from .closed import (
    ch_rect_fast,
    closed_char_ed,
    coeff_f,
    corollary_poly,
    integrality_witness,
    minus_one_col_char,
    minus_one_row_char,
)
from .exact import catalan
from .mn import normalized_character
from ._poly import BiPoly, DEPoly, JNPoly
from .stanley import (
    decompose_even_basis,
    jm_factorization_check,
    leading_square_coeff,
    stanley_eval,
    stanley_poly,
    substitute_ed,
)
from .young import (
    Partition,
    partitions,
    rectangle,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "DEPoly",
    "JNPoly",
    "Partition",
    "catalan",
    "ch_rect_fast",
    "closed_char_ed",
    "coeff_f",
    "corollary_poly",
    "decompose_even_basis",
    "integrality_witness",
    "jm_factorization_check",
    "leading_square_coeff",
    "minus_one_col_char",
    "minus_one_row_char",
    "normalized_character",
    "partitions",
    "rectangle",
    "stanley_eval",
    "stanley_poly",
    "substitute_ed",
    "__version__",
]
