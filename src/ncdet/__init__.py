"""Exact determinant theory for square matrices over noncommutative rings.

Symmetric determinants, preadjoints, adjoint sequences, k-th left/right
determinants, characteristic polynomials and Cayley--Hamilton witnesses,
over the free associative algebra, the exterior (Grassmann) algebra, and
the integers -- all with exact arbitrary-precision arithmetic, plus a
verification harness that mechanically checks every identity.
"""

from types import ModuleType as _ModuleType

from .charpoly import (
    CentralPoly,
    CHWitness,
    PolynomialRing,
    cayley_hamilton_witness,
    char_matrix,
    characteristic_polynomial,
    newton_sdet_2,
    newton_sdet_3,
    standard_polynomial_4,
)
from .determinants import (
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
from .grassmann import GrassmannAlgebra, GrassmannElem, graded_parts
from .matrices import (
    DIMENSION_CAP,
    Matrix,
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
from .perms import signed_permutations
from .rings import IntegerRing, Ring, TermLimitError, commutator
from .verify import (
    CheckResult,
    VerifyReport,
    generic_matrix,
    lie_nilpotency_check,
    run_verify,
    scalar_cayley_hamilton_check,
)

__version__ = "0.1.0"

# every public name above, but not the submodules the imports bind
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
