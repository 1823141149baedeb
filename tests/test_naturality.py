"""Naturality: the routes commute with ring maps.

The free algebra is universal: the generic matrix A holds its generators
in row-major order, so any n x n matrix B over a ring S defines the ring
map phi (``specialize``) that sends each generator to its entry of B, and
phi(A) = B.  Then phi(f(A)) = f(B) for each route f, where the left side
maps the generic result (a characteristic polynomial coefficientwise) and
the right side runs S's own route: native ints, M_2(Z) through the ring
contract alone, and the exterior algebra's products of disjoint generator
sets and its characteristic polynomials evaluated at z = 2^B.

Maps out of the exterior algebra check its own routes against their
images: the augmentation to Z (every generator to 0) and the parity
automorphism v_i -> -v_i.  Evaluation R[z] -> R at z = z0 maps p_A,1 and
q_A,1 to the first determinants of z0 I - A.
"""

import random

import pytest

from ncdet import (
    GrassmannAlgebra,
    GrassmannElem,
    IntegerRing,
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

M2, E4, E6 = IntMatrixRing(2), GrassmannAlgebra(4), GrassmannAlgebra(6)

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
    "rdet_2": lambda A: right_determinant(A, 2),
    "ldet_2": lambda A: left_determinant(A, 2),
    "p_A,1": lambda A: characteristic_polynomial(A, "right", 1).coefficients,
    "q_A,1": lambda A: characteristic_polynomial(A, "left", 1).coefficients,
    "p_A,2": lambda A: characteristic_polynomial(A, "right", 2).coefficients,
    "q_A,2": lambda A: characteristic_polynomial(A, "left", 2).coefficients,
}

# generic rdet_2 at n = 3 has 62,208 terms, and mapping it to an exterior
# draw takes seconds
SIZES = {
    "sdet": (2, 3, 4), "preadjoint": (2, 3, 4),
    "rdet_2": (2,), "ldet_2": (2,), "p_A,2": (2,), "q_A,2": (2,),
}

EXTERIOR_MAPS = {
    "augmentation": (IntegerRing(), lambda x: x._terms.get(0, 0)),
    "parity": (E6, lambda x: GrassmannElem(
        E6, {m: -c if m.bit_count() % 2 else c for m, c in x._terms.items()}
    )),
}

EXTERIOR_SIZES = {
    "rdet_2": (2, 3), "ldet_2": (2, 3), "p_A,1": (1, 2, 3, 4), "q_A,1": (1, 2, 3, 4),
    "p_A,2": (2,), "q_A,2": (2,),
}


def assert_natural(f, A, ring, phi):
    """phi(f(A)) == f(phi(A)) for the entrywise map phi into ``ring``."""

    def image(x):
        if isinstance(x, Matrix):
            return x.with_ring(ring, phi)
        return tuple(map(phi, x)) if isinstance(x, tuple) else phi(x)

    assert image(f(A)) == f(image(A))


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize(
    "route, n", [(route, n) for route in ROUTES for n in SIZES.get(route, (2, 3))]
)
def test_each_route_commutes_with_a_ring_map(route, n, target):
    algebra, A = generic_matrix(n)
    B = TARGETS[target](random.Random(n), n)
    values = dict(zip(algebra.names, (e for row in B.rows for e in row)))
    assert_natural(ROUTES[route], A, B.ring, lambda x: specialize(x, values, B.ring))


@pytest.mark.parametrize("ring_map", EXTERIOR_MAPS)
@pytest.mark.parametrize(
    "route, n", [(route, n) for route in ROUTES for n in EXTERIOR_SIZES.get(route, (2, 3, 4))]
)
def test_each_route_commutes_with_a_map_out_of_the_exterior_algebra(route, n, ring_map):
    A = random_grassmann_matrix(E6, random.Random(n), n)
    assert_natural(ROUTES[route], A, *EXTERIOR_MAPS[ring_map])


@pytest.mark.parametrize("z0", [-3, 0, 2, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "draw", [random_integer_matrix, lambda rng, n: random_grassmann_matrix(E6, rng, n)],
    ids=["Z", "exterior rank 6"],
)
def test_evaluation_maps_the_first_charpoly_to_det_1_at_z0(draw, n, z0):
    # p_A,1 is det_1(zI - A) over R[z], and z -> z0 maps R[z] onto R
    A = draw(random.Random(n), n)
    shifted = Matrix.scalar(A.ring, n, A.ring.from_int(z0)) - A
    for side, determinant in (("right", right_determinant), ("left", left_determinant)):
        coefficients = characteristic_polynomial(A, side, 1).coefficients
        value = sum((c * z0**i for i, c in enumerate(coefficients)), A.ring.zero)
        assert value == determinant(shifted, 1)
