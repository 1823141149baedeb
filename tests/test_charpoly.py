import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ncdet import (
    CentralPoly,
    FreeAlgebra,
    GrassmannAlgebra,
    IntegerRing,
    Matrix,
    PolynomialRing,
    cayley_hamilton_witness,
    char_matrix,
    characteristic_polynomial,
    charpoly,
    commutative_det,
    in_commutator_span,
    newton_sdet_2,
    newton_sdet_3,
    preadjoint,
    scalar_cayley_hamilton_check,
    scalar_ch_residuals,
    scalar_leading_coefficient,
    standard_polynomial_4,
    symmetric_determinant,
)
from ncdet.verify import generic_matrix, random_grassmann_matrix, random_supermatrix

from oracles import central_poly_product_slices, charpoly_by_interpolation


@pytest.fixture
def ints():
    return IntegerRing()


# -- central polynomial arithmetic ---------------------------------------------


def test_z_is_central_over_the_free_algebra():
    algebra = FreeAlgebra(("a", "b"))
    ring = PolynomialRing(algebra)
    a, b = algebra.gens()
    pa = CentralPoly(ring, [a])
    pb = CentralPoly(ring, [b])
    z = CentralPoly(ring, [algebra.zero, algebra.one])
    assert (pa + z) * (pb + z) == CentralPoly(ring, [a * b]) + (pa + pb) * z + z * z
    assert z * pa == pa * z


def test_trailing_zeros_are_trimmed(ints):
    ring = PolynomialRing(ints)
    assert CentralPoly(ring, [1, 2, 0, 0]).degree() == 1
    assert CentralPoly(ring, [0, 0]).is_zero()
    assert CentralPoly(ring, []).degree() == -1


def test_coefficient_products_preserve_order():
    algebra = FreeAlgebra(("a", "b"))
    ring = PolynomialRing(algebra)
    a, b = algebra.gens()
    left = CentralPoly(ring, [algebra.zero, a])
    right = CentralPoly(ring, [algebra.zero, b])
    assert (left * right).coeff(2) == a * b
    assert (right * left).coeff(2) == b * a


_WIDE = st.integers(-(2**40), 2**40)
_FREE = FreeAlgebra(("a", "b"))
_EXTERIOR = GrassmannAlgebra(4)
_BASE_KEYS = {
    # words of up to two letters; subsets of up to two of v1..v4
    _FREE: st.lists(st.integers(0, 1), max_size=2).map(tuple),
    _EXTERIOR: st.frozensets(st.integers(1, 4), max_size=2).map(lambda s: tuple(sorted(s))),
}


@st.composite
def _poly_pairs(draw):
    """Two polynomials over one sparse base, up to five slices each; the
    slices draw from a few keys, so keys repeat across slices as they do
    in zI - A and its adjoints."""
    base = draw(st.sampled_from(list(_BASE_KEYS)))
    keys = draw(st.lists(_BASE_KEYS[base], min_size=1, max_size=4, unique=True))
    element = st.dictionaries(st.sampled_from(keys), _WIDE, max_size=3).map(
        lambda terms: base.element_type(base, terms)
    )
    ring = PolynomialRing(base)
    poly = st.lists(element, max_size=5).map(lambda coeffs: CentralPoly(ring, coeffs))
    return draw(poly), draw(poly)


@settings(max_examples=200, deadline=None)
@given(_poly_pairs())
def test_packed_product_matches_the_slice_loop(pair):
    x, y = pair
    product = x * y
    expected = central_poly_product_slices(x, y)
    assert product == expected
    assert product.coefficients == expected.coefficients
    assert str(product) == str(expected)


@pytest.mark.parametrize("degree", [1, 2], ids=["slice loop", "packed"])
@pytest.mark.parametrize("base", [_FREE, _EXTERIOR], ids=["free", "exterior"])
def test_product_at_the_slot_bound(base, degree):
    # l1(c z^d) * l1(-c z^d) = c^2, all of it on the one slot of z^(2d)
    c = 2**61 - 1
    ring = PolynomialRing(base)
    x = CentralPoly(ring, [base.zero] * degree + [base.from_int(c)])
    y = CentralPoly(ring, [base.zero] * degree + [base.from_int(-c)])
    product = x * y
    assert product == central_poly_product_slices(x, y)
    assert product.coefficients == (base.zero,) * (2 * degree) + (base.from_int(-(c * c)),)


def test_packed_products_that_cancel():
    ring = PolynomialRing(_EXTERIOR)
    one, zero = _EXTERIOR.one, _EXTERIOR.zero
    v1, v2, v3, _ = _EXTERIOR.gens()
    cases = [
        # every slice vanishes: v1 v1 = 0
        (CentralPoly(ring, [v1, v1, v1]), CentralPoly(ring, [v1 * 3, v1, v1 * -2]), ()),
        # the top slice v1 v1 vanishes
        (CentralPoly(ring, [one, zero, v1]), CentralPoly(ring, [one, zero, v1]), (one, zero, v1 * 2)),
        # (1 + z + z^2)(-1 + z^2): the z^2 slice cancels
        (
            CentralPoly(ring, [one, one, one]),
            CentralPoly(ring, [-one, zero, one]),
            (-one, -one, zero, one, one),
        ),
        # the top slice v1 v1 vanishes, the others differ in their keys
        (
            CentralPoly(ring, [v2, zero, v1]),
            CentralPoly(ring, [v3, zero, v1]),
            (v2 * v3, zero, v1 * v3 - v1 * v2),
        ),
    ]
    for x, y, coefficients in cases:
        product = x * y
        assert product.coefficients == coefficients
        assert product == central_poly_product_slices(x, y)


def test_rendering_descends_with_parenthesized_coefficients():
    algebra, A = generic_matrix(2)
    p = characteristic_polynomial(A, "right", 1)
    assert str(p) == "2*z^2 - (2*a + 2*d)*z + (a*d - b*c - c*b + d*a)"


def test_rendering_pulls_out_the_sign_of_all_negative_coefficients(ints):
    algebra = FreeAlgebra(("a", "b", "d"))
    a, b, d = algebra.gens()
    # all-negative multi-term, one negative term, mixed signs, negative constant
    coeffs = [algebra.from_int(-3), a - b * 2, -(a * b), -(a * 2 + d * 2), algebra.one]
    text = "z^4 - (2*a + 2*d)*z^3 - a*b*z^2 + (a - 2*b)*z - 3"
    assert str(CentralPoly(PolynomialRing(algebra), coeffs)) == text
    assert str(CentralPoly(PolynomialRing(ints), [-5, 3, -1])) == "-z^2 + 3*z - 5"
    E = GrassmannAlgebra(3)
    v1, v2, v3 = E.gens()
    p = CentralPoly(PolynomialRing(E), [-(v1 * v2) - 2, v3 - v1, -v1])
    assert str(p) == "-v1*z^2 + (-v1 + v3)*z - (2 + v1*v2)"


# -- characteristic polynomials -------------------------------------------------


def test_generic_2x2_first_charpoly():
    algebra, A = generic_matrix(2)
    a, b, c, d = algebra.gens()
    ring = PolynomialRing(algebra)
    expected = CentralPoly(
        ring,
        [a * d + d * a - b * c - c * b, (a + d) * (-2), algebra.from_int(2)],
    )
    assert characteristic_polynomial(A, "right", 1) == expected
    assert characteristic_polynomial(A, "left", 1) == expected


def test_charpoly_of_zero_matrix():
    algebra = FreeAlgebra(("a",))
    A = Matrix.zeros(algebra, 2)
    p = characteristic_polynomial(A, "right", 1)
    assert p == CentralPoly(PolynomialRing(algebra), [algebra.zero, algebra.zero, algebra.from_int(2)])
    assert str(p) == "2*z^2"


def test_generic_3x3_charpoly_matches_trace_closed_form():
    algebra, A = generic_matrix(3)
    t = A.trace()
    t2 = (A * A).trace()
    expected = CentralPoly(
        PolynomialRing(algebra),
        [-symmetric_determinant(A), (t * t - t2) * 3, t * (-6), algebra.from_int(6)],
    )
    assert characteristic_polynomial(A, "right", 1) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_first_right_and_left_charpoly_coincide(n):
    _, A = generic_matrix(n)
    assert characteristic_polynomial(A, "right", 1) == characteristic_polynomial(A, "left", 1)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: random_grassmann_matrix(GrassmannAlgebra(6), random.Random(2), 2),
        lambda: random_grassmann_matrix(GrassmannAlgebra(6), random.Random(3), 3),
        lambda: generic_matrix(2)[1],
    ],
    ids=["rank 6 n=2", "rank 6 n=3", "generic n=2"],
)
def test_second_charpoly_matches_interpolation(build, side):
    A = build()
    expected = charpoly_by_interpolation(A, side, 2)
    assert expected.degree() == A.n**2
    assert characteristic_polynomial(A, side, 2) == expected


def test_charpoly_rejects_bad_arguments():
    _, A = generic_matrix(2)
    with pytest.raises(ValueError):
        characteristic_polynomial(A, "sideways", 1)
    with pytest.raises(ValueError):
        characteristic_polynomial(A, "right", 0)


# -- Cayley-Hamilton witnesses ---------------------------------------------------


def witness_residuals(A, witness):
    ring = A.ring
    n = A.n
    right_sum = Matrix.zeros(ring, n)
    left_sum = Matrix.zeros(ring, n)
    power = Matrix.identity(ring, n)
    for i in range(n + 1):
        lam = Matrix.scalar(ring, n, witness.lambdas[i])
        right_sum = right_sum + power * (lam + witness.right_defects[i])
        left_sum = left_sum + (lam + witness.left_defects[i]) * power
        if i < n:
            power = power * A
    return right_sum, left_sum


@pytest.mark.parametrize("n", [2, 3])
def test_generic_witness_identities_vanish(n):
    _, A = generic_matrix(n)
    witness = cayley_hamilton_witness(A)
    right_sum, left_sum = witness_residuals(A, witness)
    assert right_sum.is_zero()
    assert left_sum.is_zero()
    assert witness.lambdas[n] == A.ring.from_int(math.factorial(n))
    for defect in (*witness.right_defects, *witness.left_defects):
        assert defect.trace() == A.ring.zero
        assert all(in_commutator_span(e) for row in defect.rows for e in row)


def test_generic_3x3_lambdas_match_newton_closed_form():
    algebra, A = generic_matrix(3)
    witness = cayley_hamilton_witness(A)
    t = A.trace()
    t2 = (A * A).trace()
    assert witness.lambdas[0] == -symmetric_determinant(A)
    assert witness.lambdas[1] == (t * t - t2) * 3
    assert witness.lambdas[2] == t * (-6)
    assert witness.lambdas[3] == algebra.from_int(6)


def test_witness_slices_one_preadjoint_and_multiplies_nothing_over_rz(monkeypatch):
    _, A = generic_matrix(2)
    preadjoints = []
    products = []
    original = Matrix.__mul__

    def recorded_preadjoint(M):
        preadjoints.append(M)
        return preadjoint(M)

    def recorded(self, other):
        if isinstance(other, Matrix) and isinstance(self.ring, PolynomialRing):
            products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(charpoly, "preadjoint", recorded_preadjoint)
    monkeypatch.setattr(Matrix, "__mul__", recorded)
    cayley_hamilton_witness(A)
    assert preadjoints == [char_matrix(A)]
    assert products == []


def test_integer_witness_reduces_to_classical_cayley_hamilton(ints):
    A = Matrix(ints, [[1, 2], [3, 4]])
    # classical CH: A^2 - 5A - 2I = 0, then doubled
    classical = A * A - A * 5 - Matrix.scalar(ints, 2, 2)
    assert classical.is_zero()
    witness = cayley_hamilton_witness(A)
    assert witness.lambdas == (-4, -10, 2)
    assert all(d.is_zero() for d in witness.right_defects + witness.left_defects)
    combo = Matrix.scalar(ints, 2, -4) + A * (-10) + (A * A) * 2
    assert combo.is_zero()


@pytest.mark.parametrize(
    "A",
    [Matrix.zeros(FreeAlgebra(("a",)), 3), Matrix.zeros(IntegerRing(), 2), generic_matrix(1)[1]],
    ids=["zero free 3x3", "zero integer 2x2", "generic 1x1"],
)
def test_witness_has_one_slice_per_degree_up_to_n(A):
    # (zI - A)(zI - A)* has degree n exactly, so no slice needs padding
    B = char_matrix(A)
    assert max(e.degree() for row in (B * preadjoint(B)).rows for e in row) == A.n
    witness = cayley_hamilton_witness(A)
    assert len(witness.right_defects) == len(witness.left_defects) == A.n + 1
    assert witness.lambdas[A.n] == A.ring.from_int(math.factorial(A.n))


# sha256 of every lambda and defect as text, one per line; the witness
# returns its data unchecked, so these pin it to the output it had while
# it still checked itself
@pytest.mark.parametrize(
    "A, digest",
    [
        pytest.param(
            generic_matrix(1)[1],
            "41accf8f7e9e434d964508ffd12d67524720a3b2cc52881cae4c3fec4619a90a",
            id="generic n=1",
        ),
        pytest.param(
            generic_matrix(2)[1],
            "0a81be8158450e521cb5834ec9d0604583e0ff245026c797eb7d5bfed8c70b9e",
            id="generic n=2",
        ),
        pytest.param(
            generic_matrix(3)[1],
            "e10b6e47760666ed57e6cd7619b78e05a95cf3b92a278d2faa055d10c3fdc85c",
            id="generic n=3",
        ),
        pytest.param(
            generic_matrix(4)[1],
            "431acaf6c16568eb3f3012577916d01d6363ddd0b8fb676ac376ac80210f6eb1",
            id="generic n=4",
        ),
        pytest.param(
            generic_matrix(5)[1],
            "3a90ddd52dbe254f4b54ef3fb0844248b2110d69914b31c6273a719e4d4fa4ce",
            id="generic n=5",
        ),
        pytest.param(
            Matrix(IntegerRing(), [[1, 2], [3, 4]]),
            "86f79d96b26e0ead13abe6cbf6112765b92a4a2740f5ef14cded02efe3b2fadb",
            id="integer 2x2",
        ),
        pytest.param(
            random_grassmann_matrix(GrassmannAlgebra(4), random.Random(3), 3),
            "2b967da8ab2e6c31f363d7d8b50117fc7ca0847805d92d15da34be5ad234470c",
            id="grassmann rank 4 3x3",
        ),
        pytest.param(
            random_supermatrix(GrassmannAlgebra(4), random.Random(5), 3, 1),
            "b5cbb3031f5848965402f6aa12a2c048e98feeec695e5b91b7d814faf2f7130a",
            id="grassmann rank 4 (3, 1) supermatrix",
        ),
    ],
)
def test_witness_text_is_pinned(A, digest):
    witness = cayley_hamilton_witness(A)
    parts = (*witness.lambdas, *witness.right_defects, *witness.left_defects)
    text = "\n".join(str(part) for part in parts)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_witness_guardrail_for_large_generic_matrices():
    _, A = generic_matrix(6)
    with pytest.raises(ValueError, match="n <= 5"):
        cayley_hamilton_witness(A)


# -- scalar Cayley-Hamilton over the exterior algebra -----------------------------


def test_scalar_ch_on_seeded_random_2x2():
    algebra = GrassmannAlgebra(4)
    rng = random.Random(42)
    for _ in range(10):
        A = random_grassmann_matrix(algebra, rng, 2)
        assert scalar_cayley_hamilton_check(A, k=2)


def test_scalar_ch_zero_matrix_gives_2z4():
    algebra = GrassmannAlgebra(4)
    A = Matrix.zeros(algebra, 2)
    p = characteristic_polynomial(A, "right", 2)
    ring = PolynomialRing(algebra)
    assert p == CentralPoly(ring, [algebra.zero] * 4 + [algebra.from_int(2)])
    assert scalar_cayley_hamilton_check(A, k=2)


def test_scalar_ch_on_integer_diagonal_embedded_in_rank_zero():
    algebra = GrassmannAlgebra(0)
    A = Matrix(algebra, [[algebra.from_int(3), algebra.zero], [algebra.zero, algebra.from_int(-2)]])
    # commutative closed form: p_{A,2}(z) = 2 det(zI - A)^2
    ints = IntegerRing()
    shadow = Matrix(ints, [[3, 0], [0, -2]])
    p = characteristic_polynomial(A, "right", 2)
    z_ring = PolynomialRing(ints)
    z = CentralPoly(z_ring, [0, 1])
    char = (z - 3) * (z + 2)
    expected = char * char * 2
    assert [c.terms.get((), 0) for c in p.coefficients] == list(expected.coefficients)
    assert commutative_det(shadow) == -6
    assert scalar_cayley_hamilton_check(A, k=2)


def test_scalar_ch_reports_both_readings():
    algebra = GrassmannAlgebra(4)
    rng = random.Random(7)
    A = random_grassmann_matrix(algebra, rng, 2)
    residuals = scalar_ch_residuals(A, k=2)
    assert residuals["right"].is_zero()
    assert residuals["left"].is_zero()
    assert set(residuals) == {"right", "left", "leading"}
    assert residuals["leading"] == algebra.from_int(2)


def test_scalar_ch_guardrails(ints):
    with pytest.raises(ValueError, match="exterior"):
        scalar_cayley_hamilton_check(Matrix(ints, [[1, 0], [0, 1]]))


def test_scalar_ch_at_n3_needs_no_flag():
    assert scalar_cayley_hamilton_check(Matrix.zeros(GrassmannAlgebra(2), 3))
    algebra = GrassmannAlgebra(4)
    rng = random.Random(3)
    for _ in range(3):
        assert scalar_cayley_hamilton_check(random_grassmann_matrix(algebra, rng, 3), k=2)


def test_scalar_leading_coefficients():
    assert scalar_leading_coefficient(2, 1) == 2
    assert scalar_leading_coefficient(2, 2) == 2
    assert scalar_leading_coefficient(3, 1) == 6
    assert scalar_leading_coefficient(3, 2) == 3 * 2**4


# -- standard polynomial -----------------------------------------------------------


def test_standard_polynomial_has_24_alternating_terms():
    algebra = FreeAlgebra(("a", "b", "c", "d"))
    a, b, c, d = algebra.gens()
    s4 = standard_polynomial_4(a, b, c, d)
    assert len(s4.terms) == 24
    assert all(coeff in (1, -1) for coeff in s4.terms.values())


def test_standard_polynomial_vanishes_on_repeats():
    algebra = FreeAlgebra(("x", "y", "z"))
    x, y, z = algebra.gens()
    assert standard_polynomial_4(x, x, y, z).is_zero()


def test_standard_polynomial_vanishes_on_integers():
    assert standard_polynomial_4(3, -1, 4, 7) == 0


# -- Newton trace formulas -----------------------------------------------------------


def test_newton_2x2_generic_and_integer(ints):
    algebra, A = generic_matrix(2)
    a, b, c, d = algebra.gens()
    assert newton_sdet_2(A) == a * d + d * a - b * c - c * b
    M = Matrix(ints, [[1, 2], [3, 4]])
    assert M.trace() ** 2 == 25
    assert (M * M).trace() == 29
    assert newton_sdet_2(M) == -4
    assert newton_sdet_2(Matrix.zeros(ints, 2)) == 0


def test_newton_3x3_examples(ints):
    _, A = generic_matrix(3)
    assert newton_sdet_3(A) == symmetric_determinant(A)
    M = Matrix(ints, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert newton_sdet_3(M) == -18 == 6 * commutative_det(M)
    assert newton_sdet_3(Matrix.identity(ints, 3)) == 6


def test_newton_formulas_enforce_dimensions(ints):
    with pytest.raises(ValueError):
        newton_sdet_2(Matrix.identity(ints, 3))
    with pytest.raises(ValueError):
        newton_sdet_3(Matrix.identity(ints, 2))
