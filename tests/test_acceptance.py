"""Acceptance gate: every criterion runs at its stated size and time budget,
asserts exact symbolic equality (zero residual), and prints one line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ncdet import (
    GrassmannAlgebra,
    IntegerRing,
    Matrix,
    cayley_hamilton_witness,
    characteristic_polynomial,
    commutative_adj,
    commutative_det,
    commutator,
    commutator_defect,
    conjugate,
    graded_parts,
    in_commutator_span,
    is_supermatrix,
    left_determinant,
    newton_sdet_2,
    newton_sdet_3,
    parse_expression,
    preadjoint,
    right_determinant,
    scalar_cayley_hamilton_check,
    sequence_product,
    standard_polynomial_4,
    symmetric_determinant,
    trace_of_product,
)
from ncdet.charpoly import CentralPoly, PolynomialRing
from ncdet.verify import (
    generic_matrix,
    random_grassmann_matrix,
    random_integer_matrix,
    random_supermatrix,
    scalar_matrix_equal,
    unimodular_conjugators,
)

from oracles import commutator_span_oracle


class budget:
    """Times a criterion body and prints its pass/fail line."""

    def __init__(self, number: int, title: str, seconds: float):
        self.number = number
        self.title = title
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} [{status}] {self.title} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_01_generic_sdet_forms():
    with budget(1, "generic sdet closed forms (2x2 and the 36-term 3x3)", 1.0):
        algebra, A = generic_matrix(2)
        a, b, c, d = algebra.gens()
        assert symmetric_determinant(A) == a * d + d * a - b * c - c * b

        algebra3, A3 = generic_matrix(3)
        g = dict(zip(algebra3.names, algebra3.gens()))

        def sym6(x, y, z):
            return x * y * z + x * z * y + y * x * z + y * z * x + z * x * y + z * y * x

        expected = (
            sym6(g["a"], g["e"], g["p"])
            + sym6(g["b"], g["f"], g["g"])
            + sym6(g["c"], g["d"], g["h"])
            - sym6(g["c"], g["e"], g["g"])
            - sym6(g["a"], g["f"], g["h"])
            - sym6(g["b"], g["d"], g["p"])
        )
        result = symmetric_determinant(A3)
        assert len(result.terms) == 36
        assert result == expected


def test_criterion_02_trace_formula_for_sdet():
    with budget(2, "tr(A A*) = sdet(A) = tr(A* A) for generic n in {2,3,4}", 10.0):
        for n in (2, 3, 4):
            _, A = generic_matrix(n)
            pre = preadjoint(A)
            sdet = symmetric_determinant(A)
            assert trace_of_product(A, pre) == sdet
            assert trace_of_product(pre, A) == sdet


def test_criterion_03_commutative_collapse():
    with budget(3, "commutative collapse: sdet = n! det, A* = (n-1)! adj, rdet_2 = 2 det^2", 5.0):
        rng = random.Random(42)
        for n in (2, 3, 4):
            for _ in range(20):
                A = random_integer_matrix(rng, n)
                det = commutative_det(A)
                assert symmetric_determinant(A) == math.factorial(n) * det
                assert preadjoint(A) == commutative_adj(A) * math.factorial(n - 1)
                if n == 2:
                    assert right_determinant(A, 2) == 2 * det * det


def test_criterion_04_commutator_defects_and_span_criterion():
    with budget(4, "defects have zero trace and [R,R] entries; criterion vs oracle", 10.0):
        for n in (2, 3):
            _, A = generic_matrix(n)
            for side in ("right", "left"):
                result = commutator_defect(A, side)
                assert result.defect.trace() == A.ring.zero
                assert all(
                    in_commutator_span(e) for row in result.defect.rows for e in row
                )
        # cross-validate the cyclic-class criterion against the brute-force
        # integer-span oracle on 50 random degree-<=3 elements
        from ncdet import FreeAlgebra

        algebra = FreeAlgebra(("a", "b", "c"))
        rng = random.Random(4242)
        for i in range(50):
            if i % 2 == 0:
                p = algebra.zero
                for _ in range(rng.randint(1, 3)):
                    p = p + commutator(
                        algebra.random_element(rng, max_degree=2, max_terms=2),
                        algebra.random_element(rng, max_degree=1, max_terms=2),
                    )
            else:
                p = algebra.random_element(rng, max_degree=3, max_terms=4)
            assert in_commutator_span(p) == commutator_span_oracle(p)


def test_criterion_05_lie_nilpotent_scalar_collapse():
    with budget(5, "n A P1 P2 and n Q2 Q1 A are scalar over rank-6 Grassmann", 30.0):
        algebra = GrassmannAlgebra(6)
        rng = random.Random(42)
        for n in (2, 3):
            for _ in range(20):
                A = random_grassmann_matrix(algebra, rng, n)
                right = sequence_product(A, "right", 2)
                assert scalar_matrix_equal(right * n, right.trace())
                left = sequence_product(A, "left", 2)
                assert scalar_matrix_equal(left * n, left.trace())


def test_criterion_06_supermatrix_grading_preservation():
    with budget(6, "supermatrices: A* super; rdet/ldet and charpoly coefficients even", 60.0):
        algebra = GrassmannAlgebra(6)
        rng = random.Random(42)
        shapes = ((2, 1, 7), (3, 1, 7), (3, 2, 6))  # 20 supermatrices total
        for n, t, count in shapes:
            for _ in range(count):
                A = random_supermatrix(algebra, rng, n, t)
                assert is_supermatrix(A, t)
                assert is_supermatrix(preadjoint(A), t)
                for k in (1, 2):
                    assert graded_parts(right_determinant(A, k))[1].is_zero()
                    assert graded_parts(left_determinant(A, k))[1].is_zero()
                    for side in ("right", "left"):
                        poly = characteristic_polynomial(A, side, k)
                        assert all(graded_parts(c)[1].is_zero() for c in poly.coefficients)


def test_criterion_07_matrix_coefficient_cayley_hamilton():
    with budget(7, "CH witnesses vanish; 3x3 lambdas match the closed form; p = q", 60.0):
        for n in (2, 3):
            algebra, A = generic_matrix(n)
            witness = cayley_hamilton_witness(A)
            right_sum = Matrix.zeros(algebra, n)
            left_sum = Matrix.zeros(algebra, n)
            power = Matrix.identity(algebra, n)
            for i in range(n + 1):
                lam = Matrix.scalar(algebra, n, witness.lambdas[i])
                right_sum = right_sum + power * (lam + witness.right_defects[i])
                left_sum = left_sum + (lam + witness.left_defects[i]) * power
                if i < n:
                    power = power * A
            assert right_sum.is_zero()
            assert left_sum.is_zero()
            assert characteristic_polynomial(A, "right", 1) == characteristic_polynomial(A, "left", 1)
            if n == 3:
                t = A.trace()
                t2 = (A * A).trace()
                assert witness.lambdas[3] == algebra.from_int(6)
                assert witness.lambdas[2] == t * (-6)
                assert witness.lambdas[1] == (t * t - t2) * 3
                assert witness.lambdas[0] == -symmetric_determinant(A)


def test_criterion_08_scalar_cayley_hamilton():
    with budget(8, "scalar CH at k=2, n=2 over rank-4 Grassmann; leading coefficient 2", 30.0):
        algebra = GrassmannAlgebra(4)
        rng = random.Random(42)
        for _ in range(20):
            A = random_grassmann_matrix(algebra, rng, 2)
            assert scalar_cayley_hamilton_check(A, k=2)
            p = characteristic_polynomial(A, "right", 2)
            assert p.coeff(4) == algebra.from_int(2)


def test_criterion_09_standard_polynomial_difference():
    with budget(9, "rdet_2 - ldet_2 = S4; p_2 - q_2 is that constant", 5.0):
        algebra, A = generic_matrix(2)
        a, b, c, d = algebra.gens()
        s4 = standard_polynomial_4(a, b, c, d)
        assert right_determinant(A, 2) - left_determinant(A, 2) == s4
        difference = characteristic_polynomial(A, "right", 2) - characteristic_polynomial(A, "left", 2)
        assert difference == CentralPoly(PolynomialRing(algebra), [s4])


def test_criterion_10_newton_formulas():
    with budget(10, "Newton evaluators equal sdet; 3x3 charpoly closed form", 10.0):
        algebra2, A2 = generic_matrix(2)
        assert newton_sdet_2(A2) == symmetric_determinant(A2)
        algebra3, A3 = generic_matrix(3)
        assert newton_sdet_3(A3) == symmetric_determinant(A3)
        t = A3.trace()
        t2 = (A3 * A3).trace()
        expected = CentralPoly(
            PolynomialRing(algebra3),
            [-symmetric_determinant(A3), (t * t - t2) * 3, t * (-6), algebra3.from_int(6)],
        )
        assert characteristic_polynomial(A3, "right", 1) == expected


def test_criterion_11_transpose_traces():
    with budget(11, "tr((A^T)^2) = tr(A^2); tr((A^T)^3) != tr(A^3)", 5.0):
        for n in (2, 3, 4):
            _, A = generic_matrix(n)
            T = A.transpose()
            assert (T * T).trace() == (A * A).trace()
        _, A2 = generic_matrix(2)
        T2 = A2.transpose()
        difference = (T2 * T2 * T2).trace() - (A2 * A2 * A2).trace()
        assert not difference.is_zero()
        assert str(difference) != "0"  # nonzero canonical form is reportable


def test_criterion_12_conjugation_invariance():
    with budget(12, "trace, A*, rdet_k, ldet_k invariant under unimodular conjugation", 30.0):
        for n in (2, 3):
            _, A = generic_matrix(n)
            trace = A.trace()
            pre = preadjoint(A)
            dets = {k: (right_determinant(A, k), left_determinant(A, k)) for k in (1, 2)}
            for T in unimodular_conjugators(n):
                C = conjugate(A, T)
                assert C.trace() == trace
                assert preadjoint(C) == conjugate(pre, T)
                for k in (1, 2):
                    assert right_determinant(C, k) == dets[k][0]
                    assert left_determinant(C, k) == dets[k][1]


def test_criterion_13_parser_round_trip_and_full_verify():
    with budget(13, "500 render/parse round trips per ring; verify --suite all exits 0", 300.0):
        from ncdet import FreeAlgebra

        rng = random.Random(1313)
        free = FreeAlgebra(("a", "b", "c"))
        grassmann = GrassmannAlgebra(4)
        for _ in range(500):
            p = free.random_element(rng, max_degree=3)
            assert parse_expression(str(p), free) == p
            x = grassmann.random_element(rng, max_terms=4)
            assert parse_expression(str(x), grassmann) == x
        result = subprocess.run(
            [sys.executable, "-m", "ncdet", "verify", "--suite", "all", "--seed", "42"],
            capture_output=True,
            text=True,
            timeout=280,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all checks passed" in result.stdout
