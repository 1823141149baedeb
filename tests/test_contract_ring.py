"""The determinant theory over M_m(Z), a ring written only against the ring
contract (``oracles.IntMatrixRing``)."""

import random

import pytest

from ncdet import (
    Matrix,
    characteristic_polynomial,
    left_determinant,
    parse_expression,
    preadjoint,
    right_determinant,
    standard_polynomial_4,
    symmetric_determinant,
    trace_of_product,
)

from oracles import IntMatrixRing, MatInt, sdet_double_sum


def random_element(ring: IntMatrixRing, rng: random.Random) -> MatInt:
    m = ring.m
    return MatInt(ring, tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(m)))


def random_matrix(ring: IntMatrixRing, rng: random.Random, n: int) -> Matrix:
    return Matrix(ring, [[random_element(ring, rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sdet_is_both_traces_and_the_double_sum(m, n):
    # Thm 3.1: tr(A A*) = sdet(A) = tr(A* A)
    A = random_matrix(IntMatrixRing(m), random.Random(10 * m + n), n)
    sdet = symmetric_determinant(A)
    pre = preadjoint(A)
    assert sdet == trace_of_product(A, pre) == trace_of_product(pre, A)
    assert sdet == sdet_double_sum(A)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_first_characteristic_polynomials_agree(m, n):
    # Cor 3.2: p_A,1 = q_A,1
    A = random_matrix(IntMatrixRing(m), random.Random(m * n), n)
    assert characteristic_polynomial(A, "right", 1) == characteristic_polynomial(A, "left", 1)
    assert isinstance(right_determinant(A, 2), MatInt)
    assert isinstance(left_determinant(A, 2), MatInt)


def test_s4_vanishes_on_2x2_integer_matrices_only():
    # Amitsur-Levitzki: S_2m vanishes on M_m, and M_3 satisfies no identity
    # of degree 4
    rng = random.Random(4)
    M2, M3 = IntMatrixRing(2), IntMatrixRing(3)
    for _ in range(10):
        assert standard_polynomial_4(*(random_element(M2, rng) for _ in range(4))) == 0
    assert any(
        standard_polynomial_4(*(random_element(M3, rng) for _ in range(4))) != 0
        for _ in range(10)
    )


def test_expressions_name_the_matrix_units():
    M2 = IntMatrixRing(2)
    assert parse_expression("e12*e21 - e21*e12 + 2", M2) == MatInt(M2, ((3, 0), (0, 1)))


def test_operands_of_another_size_are_refused():
    with pytest.raises(ValueError, match="integer matrices of different sizes"):
        IntMatrixRing(2).one + IntMatrixRing(3).one
