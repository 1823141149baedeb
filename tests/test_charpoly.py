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
    left_determinant,
    newton_sdet_2,
    newton_sdet_3,
    preadjoint,
    right_determinant,
    scalar_cayley_hamilton_check,
    standard_polynomial_4,
    symmetric_determinant,
)
from ncdet.charpoly import _balanced_slices
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


# R[z] multiplies slice by slice over every base; this compares that loop,
# one base dot per degree, with the oracle's plain sums
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
    # c z^d times -c z^d puts -c^2, a 122-bit coefficient, on the one slice
    # z^(2d); the slice loop assumes no width at either degree (the ids
    # are kept as test names)
    c = 2**61 - 1
    ring = PolynomialRing(base)
    x = CentralPoly(ring, [base.zero] * degree + [base.from_int(c)])
    y = CentralPoly(ring, [base.zero] * degree + [base.from_int(-c)])
    product = x * y
    assert product == central_poly_product_slices(x, y)
    assert product.coefficients == (base.zero,) * (2 * degree) + (base.from_int(-(c * c)),)


def test_packed_products_that_cancel():
    # slices that vanish or cancel in the slice loop's per-degree sums
    # leave no zero on top of the product
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


@pytest.mark.parametrize(
    "A",
    [generic_matrix(2)[1], Matrix.zeros(GrassmannAlgebra(2), 2), Matrix.zeros(IntegerRing(), 2)],
    ids=["free", "exterior", "integer"],
)
def test_bad_arguments_are_refused_before_any_determinant(monkeypatch, A):
    def refused(M, k):
        raise AssertionError("a determinant ran")

    monkeypatch.setattr(charpoly, "right_determinant", refused)
    monkeypatch.setattr(charpoly, "left_determinant", refused)
    with pytest.raises(ValueError, match="^side must be 'right' or 'left', got 'sideways'$"):
        characteristic_polynomial(A, "sideways", 1)
    for side in ("right", "left"):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            characteristic_polynomial(A, side, 0)


# -- characteristic polynomials by evaluation at z = 2^B -------------------------


@st.composite
def _sparse_charpoly_cases(draw):
    """(A, k) over a sparse base at n = 1..3, k = 1, 2 and k = 3 at n <= 2:
    exterior-algebra entries of rank 0..8 and coefficients up to 2^40, a
    seeded supermatrix of rank 0..8, or free-algebra entries of up to
    three words of lengths 0..3 (one word each where n^k = 9, whose
    determinants have degree 9), which take the walk over R[z] and meet
    interpolation only."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2 if n == 3 else 3))
    kind = draw(st.sampled_from(["free", "exterior", "supermatrix"]))
    if kind == "supermatrix":
        algebra, seed = GrassmannAlgebra(draw(st.integers(0, 8))), draw(st.integers(0, 2**32))
        return random_supermatrix(algebra, random.Random(seed), n, draw(st.integers(0, n))), k
    if kind == "free":
        base, keys = _FREE, st.lists(st.integers(0, 1), max_size=3).map(tuple)
    else:
        rank = draw(st.integers(0, 8))
        base = GrassmannAlgebra(rank)
        # subsets of up to three of v1..v_rank; only the empty one at rank 0
        subsets = st.sets(st.integers(1, max(rank, 1)), max_size=min(rank, 3))
        keys = subsets.map(lambda s: tuple(sorted(s)))
    size = 1 if kind == "free" and n**k == 9 else 3
    entry = st.dictionaries(keys, _WIDE, max_size=size).map(
        lambda terms: base.element_type(base, terms)
    )
    return Matrix(base, [[draw(entry) for _ in range(n)] for _ in range(n)]), k


@settings(max_examples=150, deadline=None)
@given(_sparse_charpoly_cases())
def test_evaluated_charpoly_matches_the_rz_walk_and_interpolation(case):
    A, k = case
    for side, determinant in (("right", right_determinant), ("left", left_determinant)):
        p = characteristic_polynomial(A, side, k)
        expected = determinant(char_matrix(A), k)
        assert p == expected
        assert str(p) == str(expected)
        if A.n**k <= 4:
            assert p == charpoly_by_interpolation(A, side, k)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("bits", [2, 40, 64])
@pytest.mark.parametrize("rank", [0, 4])
def test_charpoly_at_n1_meets_its_coefficient_bound(rank, bits, k):
    # at n = 1, p_{A,k} = z - a and the bound is nu(a) + 1 = 2^bits - 1:
    # B = bits + 1 reads -a = -(2^bits - 2) back, and one bit fewer would not
    algebra = GrassmannAlgebra(rank)
    c = 2**bits - 2
    for a in (algebra.from_int(c), algebra.from_int(-c), *(v * c for v in algebra.gens())):
        p = characteristic_polynomial(Matrix(algebra, [[a]]), "right", k)
        assert p.coefficients == (-a, algebra.one)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize(
    "build, evaluated",
    [
        (lambda: random_grassmann_matrix(GrassmannAlgebra(6), random.Random(3), 3), True),
        (lambda: random_supermatrix(GrassmannAlgebra(4), random.Random(5), 3, 1), True),
        (lambda: generic_matrix(2)[1], False),
        (lambda: Matrix(IntegerRing(), [[1, 2], [3, 4]]), False),
    ],
    ids=["exterior n=3", "supermatrix (3, 1)", "free n=2", "integer n=2"],
)
def test_only_the_exterior_algebra_evaluates_at_2_to_the_b(monkeypatch, build, evaluated, side):
    A = build()
    expected = (right_determinant if side == "right" else left_determinant)(char_matrix(A), 2)
    products, determinants = [], []
    original = PolynomialRing.dot

    def recorded_product(self, *args, **kwargs):
        products.append(args)
        return original(self, *args, **kwargs)

    def recorded(determinant):
        def run(M, k):
            determinants.append((M.ring, k))
            return determinant(M, k)

        return run

    monkeypatch.setattr(PolynomialRing, "dot", recorded_product)
    monkeypatch.setattr(charpoly, "right_determinant", recorded(right_determinant))
    monkeypatch.setattr(charpoly, "left_determinant", recorded(left_determinant))
    assert characteristic_polynomial(A, side, 2) == expected
    if evaluated:
        assert products == []
        assert determinants == [(A.ring, 2)]
    else:
        # the walk over R[z], whose products the patch sees
        assert products
        assert determinants == [(PolynomialRing(A.ring), 2)]


def test_an_int_entry_is_evaluated_as_a_central_scalar():
    algebra = GrassmannAlgebra(2)
    v1, v2 = algebra.gens()
    A = Matrix(algebra, [[1, v1], [v2, -3]])
    for k in (1, 2):
        assert characteristic_polynomial(A, "right", k) == right_determinant(char_matrix(A), k)


def test_integer_charpoly_of_degree_64_stays_in_rz():
    # evaluated at z = 2^B (B = 367 here), p_{A,3} at n = 4 would be a
    # number of about 7,200 digits, past the 4,300 that IntegerRing.total
    # lets through
    A = Matrix(IntegerRing(), [[3, -1, 4, 1], [-5, 9, 2, -6], [5, 3, -5, 8], [9, -7, 9, 3]])
    p = characteristic_polynomial(A, "right", 3)
    assert p.degree() == 64
    assert p == charpoly_by_interpolation(A, "right", 3)


_DIGIT_WIDTHS = [2, 3, 26, 64, 93]


@pytest.mark.parametrize("width", _DIGIT_WIDTHS)
@pytest.mark.parametrize("base", [_FREE, _EXTERIOR], ids=["free", "exterior"])
def test_balanced_slices_at_the_digit_bound(base, width):
    top = 2 ** (width - 1) - 1
    patterns = [
        # every slot at the bound
        [top] * 5,
        [-top] * 5,
        [top, -top] * 3,
        [-top, top] * 3,
        # zero slots below, between and above
        [0, 0, top, 0, -top],
        [0, 0, 0, 0, -top],
        [-top, 0, 0, 0, 0],
        # empty top slices under negative lower ones, whose borrows cancel
        [top, -top, 0, 0],
        [1, -1, -1, 0, 0],
        [0] * 3,
    ]
    for digits in patterns:
        value = base.from_int(sum(c << width * d for d, c in enumerate(digits)))
        slices = _balanced_slices(value, width, len(digits))
        assert slices == [base.from_int(c) for c in digits], digits
        poly = CentralPoly(PolynomialRing(base), slices)
        assert poly.degree() == max((d for d, c in enumerate(digits) if c), default=-1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_balanced_slices_read_back_every_key(data):
    width = data.draw(st.sampled_from(_DIGIT_WIDTHS))
    size = data.draw(st.integers(1, 8))
    top = 2 ** (width - 1) - 1
    digit = st.one_of(st.sampled_from([0, 1, -1, top, -top]), st.integers(-top, top))
    base = data.draw(st.sampled_from(list(_BASE_KEYS)))
    keys = data.draw(st.lists(_BASE_KEYS[base], min_size=1, max_size=4, unique=True))
    digits = {key: data.draw(st.lists(digit, min_size=size, max_size=size)) for key in keys}
    value = base.element_type(
        base, {key: sum(c << width * d for d, c in enumerate(ds)) for key, ds in digits.items()}
    )
    expected = [
        base.element_type(base, {key: ds[d] for key, ds in digits.items() if ds[d]})
        for d in range(size)
    ]
    assert _balanced_slices(value, width, size) == expected


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


@pytest.mark.parametrize("side", ["right", "left"])
def test_second_charpoly_sums_in_place_over_rz(monkeypatch, side):
    A = random_grassmann_matrix(GrassmannAlgebra(6), random.Random(3), 3)
    sums = []
    original = CentralPoly.__add__

    def recorded(self, other):
        sums.append((self, other))
        return original(self, other)

    monkeypatch.setattr(CentralPoly, "__add__", recorded)
    monkeypatch.setattr(CentralPoly, "__radd__", recorded)
    text = str(characteristic_polynomial(A, side, 2))
    assert sums == []
    # the text both sides had while every R[z] sum built a new polynomial
    digest = "05b9967264f80b90d338d63d9631f102816791224c5223f609737e2f61394062"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    assert scalar_cayley_hamilton_check(A, k=2)
    assert characteristic_polynomial(A, "right", 2).coeff(4) == algebra.from_int(2)


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
    # n ((n-1)!)^(1 + n + ... + n^(k-1)), the top coefficient of p_{A,k}
    for n, k, leading in [(2, 1, 2), (2, 2, 2), (3, 1, 6), (3, 2, 48)]:
        p = characteristic_polynomial(Matrix.zeros(IntegerRing(), n), "right", k)
        assert p.coeff(n**k) == leading, (n, k)


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


@pytest.mark.parametrize("position", range(4))
def test_standard_polynomial_sums_in_the_ring_of_any_argument(position):
    # an int may come first; S4 with a central argument vanishes
    algebra = FreeAlgebra(("a", "b", "c"))
    gens = list(algebra.gens())
    value = standard_polynomial_4(*gens[:position], 2, *gens[position:])
    assert value == standard_polynomial_4(*gens, 2)
    assert value.ring == algebra and value.is_zero()


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
