"""Reversal duality: the left side is the right side of the reversed transpose.

rho is the reversal anti-automorphism of each ring (``oracles.reverse``),
and rho(A)^T is the transpose of A with every entry reversed.  rho turns
every ordered product around and keeps both signs of each permutation
pair, so

    ldet_k(A) = rho(rdet_k(rho(A)^T)),
    Q_k(A) = rho(P_k(rho(A)^T))^T,
    q_{A,k} = rho(p_{rho(A)^T,k}),

in every ring, with supermatrices among the exterior-algebra inputs
(rho keeps parity).  Rem 4.3's inequality is the case tr((A^T)^3) =
rho(tr(A^3)) of a generic A.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ncdet import (
    CentralPoly,
    FreeAlgebra,
    FreePoly,
    GrassmannAlgebra,
    GrassmannElem,
    IntegerRing,
    Matrix,
    PolynomialRing,
    adjoint_sequence,
    characteristic_polynomial,
    generic_matrix,
    left_determinant,
    right_determinant,
)

from oracles import reverse

_FREE = FreeAlgebra(("a", "b"))
_EXTERIOR = GrassmannAlgebra(4)
_POLYNOMIALS = PolynomialRing(_EXTERIOR)
_SMALL = st.integers(-3, 3)


def _exterior(parity=None):
    """Exterior-algebra elements of up to two terms; parity 0/1 keeps
    subsets of that size parity."""
    subsets = st.frozensets(st.integers(1, 4), max_size=3)
    if parity is not None:
        subsets = subsets.filter(lambda s: len(s) % 2 == parity)
    keys = subsets.map(lambda s: tuple(sorted(s)))
    return st.dictionaries(keys, _SMALL, max_size=2).map(lambda t: GrassmannElem(_EXTERIOR, t))


# each ring with its entries: words of up to two letters, subsets of up to
# three of v1..v4, small integers, and linear polynomials over the exterior
# algebra
_WORDS = st.lists(st.integers(0, 1), max_size=2).map(tuple)
_RINGS = {
    "free": (
        _FREE,
        st.dictionaries(_WORDS, _SMALL, max_size=2).map(lambda t: FreePoly(_FREE, t)),
    ),
    "exterior": (_EXTERIOR, _exterior()),
    "integers": (IntegerRing(), st.integers(-5, 5)),
    "polynomials over exterior": (
        _POLYNOMIALS,
        st.lists(_exterior(), max_size=2).map(lambda c: CentralPoly(_POLYNOMIALS, c)),
    ),
}
_BASE_RINGS = ["free", "exterior", "integers", "supermatrix"]


@st.composite
def _matrices(draw, ring):
    """An n x n matrix over the named ring, n <= 3; a "supermatrix" is an
    (n, t) supermatrix over the exterior algebra."""
    if ring == "supermatrix":
        n = draw(st.integers(2, 3))
        t = draw(st.integers(1, n - 1))
        parity = [[int((i < t) != (j < t)) for j in range(n)] for i in range(n)]
        return Matrix(_EXTERIOR, [[draw(_exterior(p)) for p in row] for row in parity])
    base, entries = _RINGS[ring]
    n = draw(st.integers(1, 3))
    return Matrix(base, [[draw(entries) for _ in range(n)] for _ in range(n)])


def _reversed_transpose(M: Matrix) -> Matrix:
    """rho(M)^T."""
    return Matrix(M.ring, [[reverse(e) for e in column] for column in zip(*M.rows)])


def test_reverse_is_an_anti_automorphism_on_generators():
    a, b = _FREE.gens()
    assert reverse(a * b * b) == b * b * a
    v1, v2, v3 = _EXTERIOR.gens()[:3]
    assert reverse(v1 * v2) == v2 * v1 == -(v1 * v2)
    assert reverse(v1 * v2 * v3) == v3 * v2 * v1
    assert reverse(-7) == -7


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("ring", [*_RINGS, "supermatrix"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ldet_is_the_reversed_rdet_of_the_reversed_transpose(ring, k, data):
    A = data.draw(_matrices(ring))
    assert left_determinant(A, k) == reverse(right_determinant(_reversed_transpose(A), k))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("ring", [*_RINGS, "supermatrix"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_q_sequence_is_the_reversed_p_sequence_of_the_reversed_transpose(ring, k, data):
    A = data.draw(_matrices(ring))
    P = adjoint_sequence(_reversed_transpose(A), "right", k)
    assert adjoint_sequence(A, "left", k) == tuple(_reversed_transpose(M) for M in P)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("ring", _BASE_RINGS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_q_is_the_reversed_p_of_the_reversed_transpose(ring, k, data):
    A = data.draw(_matrices(ring))
    p = characteristic_polynomial(_reversed_transpose(A), "right", k)
    assert characteristic_polynomial(A, "left", k) == reverse(p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rem4_3_transposed_cube_trace_is_the_reversed_cube_trace(n):
    _, A = generic_matrix(n)
    T = A.transpose()
    assert (T * T * T).trace() == reverse((A * A * A).trace())
