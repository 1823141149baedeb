"""Preadjoints, adjoint sequences, and the k-th left/right determinants.

The preadjoint A* symmetrizes the classical adjugate.  Iterating it gives
the right adjoint sequence P_1 = A*, P_{k+1} = (A P_1 ... P_k)* and its
left mirror image, and tracing the products defines the higher determinants

    rdet_k(A) = tr(A P_1 ... P_k),   ldet_k(A) = tr(Q_k ... Q_1 A).

The script also extracts the commutator defect of n A A* and conjugates by
unimodular integer matrices to show the whole theory is basis independent.
"""

from ncdet import (
    IntegerRing,
    Matrix,
    adjoint_sequence,
    commutative_adj,
    commutator_defect,
    conjugate,
    in_commutator_span,
    left_determinant,
    preadjoint,
    preadjoint_via_minors,
    right_determinant,
    symmetric_determinant,
)
from ncdet.verify import generic_matrix, unimodular_conjugators

algebra, A = generic_matrix(2)
print("A* of the generic 2x2:")
print(preadjoint(A))
print()

# Two independent routes to the same matrix: one subset sweep that builds
# the sdet of every equal-size minor from the next smaller ones, versus
# the signed symmetric determinant of each minor on its own.
assert preadjoint(A) == preadjoint_via_minors(A)
print("the subset sweep and the minor formula agree entrywise")
print()

# Over the integers the preadjoint is (n-1)! times the classical adjugate.
ints = IntegerRing()
M = Matrix(ints, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
assert preadjoint(M) == commutative_adj(M) * 2
print("integer 3x3: A* = 2! adj(A)")
print(preadjoint(M))
print()

# The adjoint sequences and the determinants they define.
seq = adjoint_sequence(A, "right", 2)
print("right adjoint sequence P1, P2 computed; base entries stay degree",
      max(e.degree() for row in seq[1].rows for e in row))
print("rdet_1(A) =", right_determinant(A, 1))
assert right_determinant(A, 1) == symmetric_determinant(A) == left_determinant(A, 1)
print("rdet_1 = sdet = ldet_1, exactly")
print()

# n A A* differs from sdet(A) I by a trace-zero matrix whose entries are
# sums of commutators -- the "defect" measuring noncommutativity.
defect = commutator_defect(A, "right")
print("right commutator defect entries:")
print(defect.defect)
assert defect.defect.trace() == algebra.zero
assert all(in_commutator_span(e) for row in defect.defect.rows for e in row)
print("defect trace is zero; every entry is a sum of commutators")
print()

# Conjugating by any unimodular integer matrix leaves everything invariant.
for T in unimodular_conjugators(2):
    C = conjugate(A, T)
    assert C.trace() == A.trace()
    assert preadjoint(C) == conjugate(preadjoint(A), T)
    assert right_determinant(C, 2) == right_determinant(A, 2)
print("trace, A*, and rdet_2 are invariant under three unimodular conjugations")
