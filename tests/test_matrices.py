import random

import pytest

from ncdet import (
    FreeAlgebra,
    GrassmannAlgebra,
    IntegerRing,
    Matrix,
    char_matrix,
    commutative_adj,
    commutative_det,
    is_supermatrix,
)
from ncdet.verify import generic_matrix, random_grassmann_matrix, random_integer_matrix


@pytest.fixture
def ints():
    return IntegerRing()


def test_identity_is_neutral():
    _, A = generic_matrix(3)
    I = Matrix.identity(A.ring, 3)
    assert I * A == A
    assert A * I == A


def test_zero_matrix_annihilates():
    _, A = generic_matrix(3)
    Z = Matrix.zeros(A.ring, 3)
    assert (Z * A).is_zero()
    assert (A * Z).is_zero()


def test_square_of_generic_2x2():
    algebra, A = generic_matrix(2)
    a, b, c, d = algebra.gens()
    expected = Matrix(
        algebra,
        [[a * a + b * c, a * b + b * d], [c * a + d * c, c * b + d * d]],
    )
    assert A * A == expected


def test_trace_of_generic_matrices():
    algebra, A = generic_matrix(2)
    a, _, _, d = algebra.gens()
    assert A.trace() == a + d
    algebra3, A3 = generic_matrix(3)
    gens = dict(zip(algebra3.names, algebra3.gens()))
    assert A3.trace() == gens["a"] + gens["e"] + gens["p"]


def test_trace_of_integer_identity(ints):
    assert Matrix.identity(ints, 3).trace() == 3


def test_transpose_examples():
    algebra, A = generic_matrix(3)
    g = dict(zip(algebra.names, algebra.gens()))
    expected = Matrix(
        algebra,
        [
            [g["a"], g["d"], g["g"]],
            [g["b"], g["e"], g["h"]],
            [g["c"], g["f"], g["p"]],
        ],
    )
    assert A.transpose() == expected
    assert A.transpose().transpose() == A


def test_transpose_fixes_diagonal_matrices(ints):
    D = Matrix(ints, [[2, 0], [0, 5]])
    assert D.transpose() == D


def test_dimension_cap(ints):
    with pytest.raises(ValueError, match="outside"):
        Matrix(ints, [[0] * 7 for _ in range(7)])
    with pytest.raises(ValueError, match="square"):
        Matrix(ints, [[1, 2], [3]])


def test_dimension_and_ring_mismatch(ints):
    A = Matrix(ints, [[1, 2], [3, 4]])
    B = Matrix(ints, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        A * B
    algebra = FreeAlgebra(("a",))
    C = Matrix(algebra, [[algebra.gen("a")]])
    with pytest.raises(ValueError):
        Matrix(ints, [[1]]) * C


def test_product_is_associative_over_grassmann():
    algebra = GrassmannAlgebra(4)
    rng = random.Random(21)
    for _ in range(50):
        A = random_grassmann_matrix(algebra, rng, 2)
        B = random_grassmann_matrix(algebra, rng, 2)
        C = random_grassmann_matrix(algebra, rng, 2)
        assert (A * B) * C == A * (B * C)


def test_trace_commutes_only_over_commutative_rings(ints):
    rng = random.Random(4)
    for _ in range(30):
        A = Matrix(ints, [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        B = Matrix(ints, [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        assert (A * B).trace() == (B * A).trace()
    # with free noncommuting entries the identity genuinely breaks
    algebra = FreeAlgebra(("a", "b", "c", "d", "w", "x", "y", "z"))
    a, b, c, d, w, x, y, z = algebra.gens()
    A = Matrix(algebra, [[a, b], [c, d]])
    B = Matrix(algebra, [[w, x], [y, z]])
    assert (A * B).trace() != (B * A).trace()


# -- supermatrix predicate ----------------------------------------------------


def test_supermatrix_positive_case():
    E = GrassmannAlgebra(2)
    v1, v2 = E.gens()
    A = Matrix(E, [[1 + v1 * v2, v1], [v2, E.from_int(3)]])
    assert is_supermatrix(A, 1)


def test_supermatrix_negative_case():
    E = GrassmannAlgebra(2)
    v1, v2 = E.gens()
    A = Matrix(E, [[v1, v2], [v1, E.one]])
    assert not is_supermatrix(A, 1)


def test_zero_blocks_are_homogeneous_of_both_parities():
    E = GrassmannAlgebra(0)
    A = Matrix(E, [[E.from_int(4), E.zero], [E.zero, E.from_int(-2)]])
    assert is_supermatrix(A, 1)


def test_supermatrix_requires_graded_ring(ints):
    A = Matrix(ints, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="graded"):
        is_supermatrix(A, 1)


def test_profile_validates_split():
    for n in (2, 3):
        A = Matrix.zeros(GrassmannAlgebra(0), n)
        for t in (0, n):
            with pytest.raises(ValueError) as caught:
                is_supermatrix(A, t)
            assert str(caught.value) == f"block split t={t} invalid for n={n}"


# -- commutative oracles ------------------------------------------------------


def test_classical_determinant_examples(ints):
    assert commutative_det(Matrix(ints, [[1, 2], [3, 4]])) == -2
    assert commutative_det(Matrix.identity(ints, 4)) == 1
    assert commutative_det(Matrix(ints, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30


def test_classical_adjugate_examples(ints):
    A = Matrix(ints, [[1, 2], [3, 4]])
    assert commutative_adj(A) == Matrix(ints, [[4, -2], [-3, 1]])
    assert commutative_adj(Matrix.identity(ints, 3)) == Matrix.identity(ints, 3)
    assert A * commutative_adj(A) == Matrix(ints, [[-2, 0], [0, -2]])


def test_adjugate_identity_on_random_matrices(ints):
    rng = random.Random(13)
    for n in (2, 3, 4):
        for _ in range(10):
            A = Matrix(ints, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            det = commutative_det(A)
            assert A * commutative_adj(A) == Matrix.scalar(ints, n, det)
            assert commutative_adj(A) * A == Matrix.scalar(ints, n, det)


def test_oracles_require_commutative_ring():
    algebra, A = generic_matrix(2)
    with pytest.raises(ValueError, match="commutative"):
        commutative_det(A)
    with pytest.raises(ValueError, match="commutative"):
        commutative_adj(A)


def test_minor_deletion(ints):
    A = Matrix(ints, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert A.minor(1, 2) == Matrix(ints, [[1, 2], [7, 8]])
    with pytest.raises(ValueError):
        Matrix(ints, [[1]]).minor(0, 0)


def test_rendering_row_per_line(ints):
    A = Matrix(ints, [[1, 2], [3, 4]])
    assert str(A) == "[1, 2]\n[3, 4]"


def _entrywise(A, B, op):
    return Matrix(A.ring, [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A.rows, B.rows)])


@pytest.mark.parametrize("ring_kind", ["integer", "free"])
def test_ring_element_operators(ints, ring_kind):
    if ring_kind == "integer":
        M = Matrix(ints, [[1, 2], [3, 4]])
        N = Matrix(ints, [[0, -5], [7, 2]])
    else:
        _, M = generic_matrix(2)
        N = M.transpose() * M
    I = Matrix.identity(M.ring, 2)
    assert M - N == _entrywise(M, N, lambda a, b: a - b)
    assert M - M == Matrix.zeros(M.ring, 2)
    assert 1 - M == I + (-M)
    assert M + 1 == M + I
    assert M ** 0 == I
    assert M ** 3 == M * M * M
    assert 3 * M == M * 3 == M + M + M
    with pytest.raises(ValueError, match="nonnegative"):
        M ** -1


def _difference_operands(kind):
    """Two 3x3 matrices over the named ring."""
    rng = random.Random(7)
    if kind == "integer":
        return random_integer_matrix(rng, 3), random_integer_matrix(rng, 3)
    if kind == "grassmann":
        algebra = GrassmannAlgebra(4)
        return random_grassmann_matrix(algebra, rng, 3), random_grassmann_matrix(algebra, rng, 3)
    _, M = generic_matrix(3)
    if kind == "polynomial":
        return char_matrix(M), char_matrix(M.transpose() * M)
    return M, M.transpose() * M


@pytest.mark.parametrize("kind", ["free", "grassmann", "integer", "polynomial"])
def test_a_matrix_difference_builds_no_negated_matrix(monkeypatch, kind):
    M, N = _difference_operands(kind)
    expected = M + (-N)
    negated = []
    negate = Matrix.__neg__
    monkeypatch.setattr(Matrix, "__neg__", lambda self: negated.append(self) or negate(self))
    assert M - N == expected
    assert str(M - N) == str(expected)
    assert M - 2 == M + Matrix.scalar(M.ring, 3, M.ring.from_int(-2))
    assert negated == []


def test_ring_element_operators_refuse_other_operands(ints):
    M = Matrix(ints, [[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        M + "x"
    with pytest.raises(TypeError):
        M - "x"
    with pytest.raises(ValueError, match="dimension mismatch"):
        M - Matrix.identity(ints, 3)
