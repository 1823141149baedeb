"""The determinant theory over M_m(Z), a ring written only against the ring
contract (``oracles.IntMatrixRing``), and the suites of ``verify`` whose
every check holds in any ring, run on M_2(Z), M_3(Z) and two kinds of
exterior-algebra draws."""

import inspect
import random

import pytest

from ncdet import (
    GrassmannAlgebra,
    Matrix,
    left_determinant,
    parse_expression,
    right_determinant,
    standard_polynomial_4,
    symmetric_determinant,
    verify,
)
from ncdet.verify import SUITES, random_grassmann_matrix, random_integer_matrix

from oracles import IntMatrixRing, MatInt, random_matrix, sdet_double_sum


def draws(draw, seed: int):
    """A suite's ``matrix``: each call draws a new n x n matrix, all from
    one seeded generator, and returns it with its ring."""
    rng = random.Random(seed)

    def matrix(n):
        A = draw(rng, n)
        return A.ring, A

    return matrix


# a suite whose every check holds in any ring takes its matrices as a
# ``matrix`` parameter
ANY_RING = [name for name, suite in SUITES.items() if "matrix" in inspect.signature(suite).parameters]


def odd_parts_matrix(rng, n):
    """Rank-6 exterior entries: the k-th is a constant, the generator
    v_(k mod 6 + 1) and one random term.  The four odd parts of a 2x2 draw
    then hold distinct generators, so S4 of its entries need not vanish."""
    algebra = GrassmannAlgebra(6)

    def entry(k):
        constant = algebra.from_int(rng.randint(-3, 3))
        return constant + algebra.gen(k % 6 + 1) + algebra.random_element(rng, max_terms=1)

    return Matrix(algebra, [[entry(n * i + j) for j in range(n)] for i in range(n)])


RINGS = {
    "M2(Z)": lambda rng, n: random_matrix(IntMatrixRing(2), rng, n),
    "M3(Z)": lambda rng, n: random_matrix(IntMatrixRing(3), rng, n),
    "exterior rank 6": lambda rng, n: random_grassmann_matrix(GrassmannAlgebra(6), rng, n),
    "exterior rank 6, odd parts": odd_parts_matrix,
}


@pytest.mark.parametrize("ring", RINGS)
def test_the_any_ring_suites_pass_on_other_rings(ring):
    # Thm 2.1, Thm 2.2, Thm 2.6, Thm 3.1, Cor 3.2, Prop 3.3, Cor 3.4,
    # Prop 4.1, Thm 4.2, Rem 4.3's squares, Thm 4.4 and Cor 4.5, at their
    # default sizes; the [R,R] lines of Thm 2.2 and 2.6 run only over the
    # free algebra.  S4 vanishes on M_2(Z) and on the sparse exterior
    # draws, so M_3(Z) and the odd-parts draws give Prop 3.3 and Cor 3.4 a
    # nonzero right side
    assert ANY_RING == [
        "thm2_1", "thm2_2", "thm2_6", "thm3_1", "cor3_2", "prop3_3", "cor3_4",
        "prop4_1", "thm4_2", "rem4_3", "thm4_4", "cor4_5",
    ]
    failed = []
    for name in ANY_RING:
        opt = verify._OptionReader(verify.VerifyOptions())
        checks = [verify._check(*pair) for pair in SUITES[name](opt, draws(RINGS[ring], 0))]
        assert checks
        failed += [str(c) for c in checks if not c.passed]
    assert failed == []


@pytest.mark.parametrize(
    "draw", [random_integer_matrix, RINGS["M2(Z)"], RINGS["exterior rank 6"]],
    ids=["integers", "M2(Z)", "exterior rank 6"],
)
def test_thm2_6_runs_past_the_free_algebra_witness_limit(draw):
    # only a free-algebra witness is refused past n = 5 (test_verify pins
    # that refusal); the identities hold at n = 6 in every other ring
    opt = verify._OptionReader(verify.VerifyOptions(n=6))
    checks = [verify._check(*pair) for pair in SUITES["thm2_6"](opt, draws(draw, 0))]
    assert len(checks) == 4
    assert [str(c) for c in checks if not c.passed] == []


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sdet_is_both_traces_and_the_double_sum(m, n):
    # the sweep against the double sum; Thm 3.1's traces are thm3_1's
    A = random_matrix(IntMatrixRing(m), random.Random(10 * m + n), n)
    assert symmetric_determinant(A) == sdet_double_sum(A)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_first_characteristic_polynomials_agree(m, n):
    # rdet_2 and ldet_2 stay in the ring; Cor 3.2's p_A,1 = q_A,1 is cor3_2's
    A = random_matrix(IntMatrixRing(m), random.Random(m * n), n)
    assert isinstance(right_determinant(A, 2), MatInt)
    assert isinstance(left_determinant(A, 2), MatInt)


def test_s4_vanishes_on_2x2_integer_matrices_only():
    # Amitsur-Levitzki: S_2m vanishes on M_m, and M_3 satisfies no identity
    # of degree 4
    rng = random.Random(4)
    M2, M3 = IntMatrixRing(2), IntMatrixRing(3)
    for _ in range(10):
        assert standard_polynomial_4(*(M2.random_element(rng) for _ in range(4))) == 0
    assert any(
        standard_polynomial_4(*(M3.random_element(rng) for _ in range(4))) != 0
        for _ in range(10)
    )


def test_s4_bites_on_the_odd_parts_draw():
    # the 2x2 matrix that prop3_3 and cor3_4 draw first from seed 0
    _, A = draws(odd_parts_matrix, 0)(2)
    assert standard_polynomial_4(*A.rows[0], *A.rows[1]) != 0


def test_expressions_name_the_matrix_units():
    M2 = IntMatrixRing(2)
    assert parse_expression("e12*e21 - e21*e12 + 2", M2) == MatInt(M2, ((3, 0), (0, 1)))


def test_operands_of_another_size_are_refused():
    with pytest.raises(ValueError, match="integer matrices of different sizes"):
        IntMatrixRing(2).one + IntMatrixRing(3).one
