"""Exact determinant theory for square matrices over noncommutative rings.

Symmetric determinants, preadjoints, adjoint sequences, k-th left/right
determinants, characteristic polynomials and Cayley--Hamilton witnesses,
over the free associative algebra, the exterior (Grassmann) algebra, and
the integers -- all with exact arbitrary-precision arithmetic, plus a
verification harness that mechanically checks every identity.

Importing the package loads none of its modules.  ``_HOMES`` names the
module each public name lives in; the first read of a name (``ncdet.X``,
``from ncdet import X``) imports that module and keeps the value in the
package's globals, so a one-shot ``ncdet`` command compiles only the
modules its work reaches.
"""

from importlib import import_module as _import_module

_HOMES = {
    name: home
    for home, names in {
        "charpoly": "CentralPoly CHWitness PolynomialRing cayley_hamilton_witness char_matrix "
        "characteristic_polynomial newton_sdet_2 newton_sdet_3 standard_polynomial_4",
        "determinants": "CommutatorDefect adjoint_sequence commutator_defect conjugate "
        "left_determinant preadjoint preadjoint_via_minors right_determinant "
        "sequence_product symmetric_determinant trace_of_product",
        "freealg": "FreeAlgebra FreePoly in_commutator_span specialize",
        "grassmann": "GrassmannAlgebra GrassmannElem graded_parts",
        "matrices": "DIMENSION_CAP Matrix commutative_adj commutative_det generic_matrix "
        "is_supermatrix",
        "parsing": "DocumentError MatrixDocument ParseError load_matrix loads_matrix "
        "parse_expression save_matrix",
        "perms": "signed_permutations",
        "rings": "IntegerRing Ring TermLimitError commutator",
        "verify": "CheckResult VerifyReport lie_nilpotency_check run_verify "
        "scalar_cayley_hamilton_check",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
