"""Naturality: the routes commute with ring maps.

The free algebra is universal: the generic matrix A holds its generators
in row-major order, so any n x n matrix B over a ring S defines the ring
map phi (``specialize``) that sends each generator to its entry of B, and
phi(A) = B.  Then phi(f(A)) = f(B) for each route f, where the left side
maps the generic result (a characteristic polynomial coefficientwise) and
the right side runs S's own route: native ints, M_2(Z) through the ring
contract alone, and the exterior algebra's products of disjoint generator
sets and its characteristic polynomials evaluated at z = 2^B.
"""

import random

import pytest

from ncdet import (
    GrassmannAlgebra,
    Matrix,
    characteristic_polynomial,
    generic_matrix,
    left_determinant,
    preadjoint,
    right_determinant,
    specialize,
    symmetric_determinant,
)
from ncdet.verify import random_grassmann_matrix, random_integer_matrix

from oracles import IntMatrixRing, random_matrix

M2, E4 = IntMatrixRing(2), GrassmannAlgebra(4)

TARGETS = {
    "Z": random_integer_matrix,
    "M2(Z)": lambda rng, n: random_matrix(M2, rng, n),
    "exterior rank 4": lambda rng, n: random_grassmann_matrix(E4, rng, n),
}

ROUTES = {
    "sdet": symmetric_determinant,
    "preadjoint": preadjoint,
    "rdet_1": lambda A: right_determinant(A, 1),
    "ldet_1": lambda A: left_determinant(A, 1),
    "p_A,1": lambda A: characteristic_polynomial(A, "right", 1).coefficients,
    "q_A,1": lambda A: characteristic_polynomial(A, "left", 1).coefficients,
    "p_A,2": lambda A: characteristic_polynomial(A, "right", 2).coefficients,
    "q_A,2": lambda A: characteristic_polynomial(A, "left", 2).coefficients,
}

SIZES = {"sdet": (2, 3, 4), "preadjoint": (2, 3, 4), "p_A,2": (2,), "q_A,2": (2,)}


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize(
    "route, n", [(route, n) for route in ROUTES for n in SIZES.get(route, (2, 3))]
)
def test_each_route_commutes_with_a_ring_map(route, n, target):
    algebra, A = generic_matrix(n)
    B = TARGETS[target](random.Random(n), n)
    values = dict(zip(algebra.names, (e for row in B.rows for e in row)))

    def phi(x):
        return tuple(map(phi, x)) if isinstance(x, tuple) else specialize(x, values, B.ring)

    f = ROUTES[route]
    result = f(A)
    mapped = result.with_ring(B.ring, phi) if isinstance(result, Matrix) else phi(result)
    assert mapped == f(B)
