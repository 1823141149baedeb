"""Exact determinant theory for square matrices over noncommutative rings.

Symmetric determinants, preadjoints, adjoint sequences, k-th left/right
determinants, characteristic polynomials and Cayley--Hamilton witnesses,
over the free associative algebra, the exterior (Grassmann) algebra, and
the integers -- all with exact arbitrary-precision arithmetic, plus a
verification harness that mechanically checks every identity.
"""

from .charpoly import (
    CentralPoly,
    CHWitness,
    PolynomialRing,
    cayley_hamilton_witness,
    char_matrix,
    characteristic_polynomial,
    matrix_poly_coefficients,
    newton_sdet_2,
    newton_sdet_3,
    scalar_cayley_hamilton_check,
    scalar_ch_residuals,
    scalar_leading_coefficient,
    standard_polynomial_4,
)
from .determinants import (
    AdjointSequence,
    CommutatorDefect,
    adjoint_sequence,
    commutator_defect,
    conjugate,
    left_determinant,
    preadjoint,
    preadjoint_via_minors,
    right_determinant,
    sequence_product,
    symmetric_determinant,
    trace_of_product,
)
from .freealg import FreeAlgebra, FreePoly, in_commutator_span, specialize
from .grassmann import GrassmannAlgebra, GrassmannElem, graded_parts, lie_nilpotency_check
from .matrices import (
    DIMENSION_CAP,
    Matrix,
    SupermatrixProfile,
    commutative_adj,
    commutative_det,
    is_supermatrix,
)
from .parsing import (
    DocumentError,
    MatrixDocument,
    ParseError,
    load_matrix,
    loads_matrix,
    parse_expression,
    save_matrix,
)
from .perms import perm_sign, signed_permutations
from .rings import IntegerRing, Ring, TermLimitError, commutator
from .verify import (
    CheckResult,
    VerifyReport,
    generic_matrix,
    generic_names,
    run_verify,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointSequence",
    "CentralPoly",
    "CHWitness",
    "CheckResult",
    "CommutatorDefect",
    "DIMENSION_CAP",
    "DocumentError",
    "FreeAlgebra",
    "FreePoly",
    "GrassmannAlgebra",
    "GrassmannElem",
    "IntegerRing",
    "Matrix",
    "MatrixDocument",
    "ParseError",
    "PolynomialRing",
    "Ring",
    "SupermatrixProfile",
    "TermLimitError",
    "VerifyReport",
    "adjoint_sequence",
    "cayley_hamilton_witness",
    "char_matrix",
    "characteristic_polynomial",
    "commutative_adj",
    "commutative_det",
    "commutator",
    "commutator_defect",
    "conjugate",
    "generic_matrix",
    "generic_names",
    "graded_parts",
    "in_commutator_span",
    "is_supermatrix",
    "left_determinant",
    "lie_nilpotency_check",
    "load_matrix",
    "loads_matrix",
    "matrix_poly_coefficients",
    "newton_sdet_2",
    "newton_sdet_3",
    "parse_expression",
    "perm_sign",
    "preadjoint",
    "preadjoint_via_minors",
    "right_determinant",
    "run_verify",
    "save_matrix",
    "scalar_cayley_hamilton_check",
    "scalar_ch_residuals",
    "scalar_leading_coefficient",
    "sequence_product",
    "signed_permutations",
    "specialize",
    "standard_polynomial_4",
    "symmetric_determinant",
    "trace_of_product",
    "__version__",
]
