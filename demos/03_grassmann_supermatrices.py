"""Exterior algebra, Lie nilpotency, and supermatrix grading.

The exterior algebra on anticommuting generators v1, v2, ... is the
standard example of a ring that is Lie nilpotent of index 2: every triple
commutator [[x, y], z] vanishes even though [x, y] itself need not.  Over
such a ring the k = 2 adjoint products become genuinely scalar, and
matrices respecting the even/odd block grading (supermatrices) keep that
grading through the whole determinant theory.
"""

import random

from ncdet import (
    GrassmannAlgebra,
    commutator,
    graded_parts,
    is_supermatrix,
    left_determinant,
    lie_nilpotency_check,
    preadjoint,
    right_determinant,
    sequence_product,
)
from ncdet.verify import random_grassmann_matrix, random_supermatrix, scalar_matrix_equal

E = GrassmannAlgebra(6)
v1, v2, v3 = E.gen(1), E.gen(2), E.gen(3)

print("anticommutation: v1*v2 =", v1 * v2, " and v2*v1 =", v2 * v1)
print("squares vanish:  v1*v1 =", v1 * v1)
print("a commutator survives: [v1, v2] =", commutator(v1, v2))
print("but triple commutators die: [[v1, v2], v3] =", commutator(commutator(v1, v2), v3))
print()

print("Lie nilpotency of index 2 on random elements:", lie_nilpotency_check(6, 2))
print("index 1 (commutativity) fails as expected:   ", lie_nilpotency_check(6, 1))
print()

# Over an index-2 ring, n A P1 P2 is not merely close to scalar -- it is
# exactly rdet_2(A) times the identity.
rng = random.Random(1)
A = random_grassmann_matrix(E, rng, 3)
product = sequence_product(A, "right", 2)
assert scalar_matrix_equal(product * 3, product.trace())
print("3 A P1 P2 = rdet_2(A) I for a random 3x3 exterior-algebra matrix")
print("rdet_2(A) =", str(right_determinant(A, 2))[:64], "...")
print()

# Supermatrices: even diagonal blocks, odd off-diagonal blocks.
S = random_supermatrix(E, rng, 3, 1)
print("a random (3, 1) supermatrix:")
print(S)
assert is_supermatrix(S, 1)
assert is_supermatrix(preadjoint(S), 1)
print("its preadjoint is again a supermatrix")
for k in (1, 2):
    for label, value in (("rdet", right_determinant(S, k)), ("ldet", left_determinant(S, k))):
        even, odd = graded_parts(value)
        assert odd.is_zero()
        print(f"{label}_{k}(S) lies in the even part; value starts: {str(value)[:48]}")
