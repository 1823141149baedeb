"""The determinant core: symmetric determinant, preadjoint, adjoint sequences.

The symmetric determinant of an n x n matrix A is the double permutation sum

    sum over (alpha, beta) in S_n x S_n of
        sgn(alpha) sgn(beta) A[alpha(1)][beta(1)] ... A[alpha(n)][beta(n)]

which collapses to n! times the classical determinant over a commutative
ring.  The preadjoint is the matching symmetrization of the adjugate: its
(r, s) entry sums over the pairs with alpha(s) = s and beta(s) = r, taking
the ordered product that omits position s.  Entry (r, s) also equals
(-1)^(r+s) times the symmetric determinant of the minor that deletes row s
and column r; both routes are implemented and cross-checked in the tests.

Both come from one subset sweep that keeps factor order, so it is exact
in any ring.  For every pair of equal-size row and column sets (R, C) it
holds the symmetric determinant of the submatrix on R x C: the signed sum
of the ordered products that list R and C in every order.  The entries
are the states of one position.  Each larger state sums the states over
one position fewer, times one factor on the right, and the factor's sign
counts the members of R and C above its row and column.  The states of
size n - 1 are the minors, so those n^2 values, signed by (-1)^(r+s), are
the entries of the preadjoint.  The symmetric determinant is tr(A* A)
(Thm 3.1) over the same minor steps, left unsummed: each term, a state
over n - 2 positions times its factor, times the entry of A it meets in
the trace.  The double sum itself lives on as a test oracle.

From the preadjoint the right and left adjoint sequences are defined by

    P_1 = A*,  P_{k+1} = (A P_1 ... P_k)*
    Q_1 = A*,  Q_{k+1} = (Q_k ... Q_1 A)*

and the k-th right/left determinants are tr(A P_1 ... P_k) and
tr(Q_k ... Q_1 A).  Both equal the symmetric determinant at k = 1.
"""

from __future__ import annotations

from functools import lru_cache

from .matrices import Matrix, _signed_minors, commutative_adj, commutative_det
from .rings import IntegerRing, Record


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _above(mask: int, x: int) -> int:
    return (mask >> x + 1).bit_count()


@lru_cache(maxsize=None)
def _sweep_plan(n: int):
    """The sweep for n >= 2 as (states, minors).

    The sweep's table starts with the n^2 entries, row-major: the states of
    one position.  ``states`` adds a step per pair of equal-size row and
    column sets over 2..n-2 positions, smaller sets first: a tuple of
    (predecessor index, row, column, negative) terms, one per factor it can
    end in.  ``minors`` are the n^2 steps over n-1 positions that entry
    (r, s) of A* reads, row-major and with (-1)^(r+s) folded in.
    Predecessor -1 is the empty product, met only at n = 2.
    """
    full = (1 << n) - 1
    index = {(1 << r, 1 << c): r * n + c for r in range(n) for c in range(n)}

    def step(rows, cols, flips):
        terms = []
        for r in _members(rows):
            for c in _members(cols):
                pred = index.get((rows ^ 1 << r, cols ^ 1 << c), -1)
                terms.append((pred, r, c, (_above(rows, r) + _above(cols, c) + flips) % 2 == 1))
        return tuple(terms)

    states = []
    for t in range(2, n - 1):
        sets = [m for m in range(full + 1) if m.bit_count() == t]
        for rows in sets:
            for cols in sets:
                index[rows, cols] = n * n + len(states)
                states.append(step(rows, cols, 0))
    minors = tuple(step(full ^ 1 << s, full ^ 1 << r, r + s) for r in range(n) for s in range(n))
    return tuple(states), minors


def _sweep(ring, rows, steps) -> list:
    """The sweep's table: the entries, row-major, and then the value of
    each step, the signed sum of its predecessors' values times one entry
    on the right, or of the bare entries where the predecessor is the empty
    product."""
    add_product = ring.add_product
    table = [x for row in rows for x in row]
    for terms in steps:
        total = ring.accumulator()
        for pred, r, c, negative in terms:
            if pred >= 0:
                total = add_product(total, table[pred], rows[r][c], negative)
            elif negative:
                total -= rows[r][c]
            else:
                total += rows[r][c]
        table.append(ring.total(total))
    return table


def symmetric_determinant(A: Matrix):
    """The double permutation sum over S_n x S_n, as Thm 3.1's tr(A* A)
    with each entry of A* left as the terms of its minor step.

    Entry (r, s) of A* is a signed sum of sweep states over n-2 positions,
    each times one entry on the right, and it meets A[s][r] on the right:
    two products per term, the state's two free rows and columns in every
    order.  With the sweep's own products that is 0, 4, 72, 432, 2,100
    and 9,900 ring multiplications at n = 1..6.
    """
    n, ring, rows = A.n, A.ring, A.rows
    total = ring.accumulator()
    if n == 1:
        total += rows[0][0]
        return ring.total(total)
    states, minors = _sweep_plan(n)
    table = _sweep(ring, rows, states)
    for i, terms in enumerate(minors):
        last = rows[i % n][i // n]  # entry divmod(i, n) = (r, s) meets A[s][r]
        for pred, r, c, negative in terms:
            # pred < 0 only at n = 2, where the state is the empty product
            x = rows[r][c] if pred < 0 else table[pred] * rows[r][c]
            if negative:
                total -= x * last
            else:
                total += x * last
    return ring.total(total)


def preadjoint(A: Matrix) -> Matrix:
    """The symmetrized adjugate A*.

    Entry (r, s) sums, over the pairs (alpha, beta) with alpha(s) = s and
    beta(s) = r, the signed ordered product that omits position s, which is
    (-1)^(r+s) times the symmetric determinant of the minor without row s
    and column r.  The sweep builds the symmetric determinant of every
    equal-size submatrix from the next smaller ones, one factor on the
    right, and its n^2 values over n-1 positions are the entries.  The
    plan is built once per n and shared with ``symmetric_determinant``.
    A 1x1 matrix maps to [1] (empty product convention).
    """
    n = A.n
    if n == 1:
        return Matrix(A.ring, [[A.ring.one]])
    ring, rows = A.ring, A.rows
    states, minors = _sweep_plan(n)
    values = _sweep(ring, rows, states + minors)[-n * n :]
    return Matrix(ring, [values[r * n : (r + 1) * n] for r in range(n)])


def preadjoint_via_minors(A: Matrix) -> Matrix:
    """A* computed entrywise as (-1)^(r+s) sdet of the (s, r)-deleted minor."""
    return _signed_minors(A, symmetric_determinant)


def _by_side(side: str, right, left):
    """``right`` for side "right", ``left`` for side "left": the one place
    that reads a side argument, and so its one check."""
    if side == "right":
        return right
    if side == "left":
        return left
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def _adjoint_walk(A: Matrix, side: str, k: int):
    """P_1..P_k (right) or Q_1..Q_k (left), and the two factors of the k-th
    product in product order: (A P_1 ... P_{k-1}, P_k) or
    (Q_k, Q_{k-1} ... Q_1 A).

    Each step is the preadjoint of the running product before it; the k-th
    product is never formed, so a trace of it need not build it.
    """
    order = _by_side(side, lambda run, step: (run, step), lambda run, step: (step, run))
    if k < 1:
        raise ValueError("k must be at least 1")
    steps = [preadjoint(A)]
    factors = order(A, steps[0])
    for _ in range(k - 1):
        running = factors[0] * factors[1]
        steps.append(preadjoint(running))
        factors = order(running, steps[-1])
    return tuple(steps), factors


def adjoint_sequence(A: Matrix, side: str, k: int) -> tuple[Matrix, ...]:
    """P_1..P_k (right) or Q_1..Q_k (left), by the defining recursion."""
    return _adjoint_walk(A, side, k)[0]


def sequence_product(A: Matrix, side: str, k: int) -> Matrix:
    """The traced product: A P_1 ... P_k (right) or Q_k ... Q_1 A (left)."""
    _, (x, y) = _adjoint_walk(A, side, k)
    return x * y


def trace_of_product(X: Matrix, Y: Matrix):
    """tr(X Y) without forming the full product matrix."""
    X._check_compatible(Y)
    ring = X.ring
    total = ring.accumulator()
    for i in range(X.n):
        for j in range(X.n):
            total = ring.add_product(total, X.rows[i][j], Y.rows[j][i])
    return ring.total(total)


def right_determinant(A: Matrix, k: int = 1):
    """The k-th right determinant tr(A P_1 ... P_k)."""
    _, factors = _adjoint_walk(A, "right", k)
    return trace_of_product(*factors)


def left_determinant(A: Matrix, k: int = 1):
    """The k-th left determinant tr(Q_k ... Q_1 A)."""
    _, factors = _adjoint_walk(A, "left", k)
    return trace_of_product(*factors)


class CommutatorDefect(Record):
    """Scalar and trace-zero defect with n A A* = scalar I + defect."""

    __slots__ = ("scalar", "defect")
    scalar: object
    defect: Matrix


def commutator_defect(A: Matrix, side: str) -> CommutatorDefect:
    """Split n A A* (right) or n A* A (left) into a scalar part plus defect.

    The scalar is the trace of the product, so the defect has zero trace in
    every ring; over the free algebra its entries lie in the additive
    commutator subgroup [R,R] (Theorem 2.2, checked by ``verify --suite thm2_2``).
    """
    product = sequence_product(A, side, 1)
    scalar = product.trace()
    defect = product * A.n - Matrix.scalar(A.ring, A.n, scalar)
    return CommutatorDefect(scalar=scalar, defect=defect)


def conjugate(A: Matrix, T: Matrix) -> Matrix:
    """T^-1 A T for a unimodular integer matrix T acting by central scalars.

    T is a Matrix over the integer ring whose determinant is +1 or -1, so
    the inverse is again integral.
    """
    if not isinstance(T.ring, IntegerRing):
        raise ValueError("conjugating matrix must have integer entries")
    if T.n != A.n:
        raise ValueError(f"dimension mismatch: conjugator is {T.n}x{T.n}, matrix {A.n}x{A.n}")
    det = commutative_det(T)
    if det not in (1, -1):
        raise ValueError(f"conjugating matrix must be unimodular, determinant is {det}")
    inverse = commutative_adj(T) * det
    ring = A.ring
    T_in = T.with_ring(ring, ring.from_int)
    Tinv_in = inverse.with_ring(ring, ring.from_int)
    return Tinv_in * A * T_in
