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

The symmetric determinant is a depth-first walk over ordered prefixes:
the pairs that agree on their first t positions share the product of
those t factors, so each prefix is built once and extended by every free
row r and column c, the sign flipping by the free rows below r plus the
free columns below c.  The double sum itself lives on as a test oracle.

The preadjoint is computed by a subset dynamic program that keeps factor
order, so it is exact in any ring.  For every pair of equal-size row and
column sets (R, C) it holds the symmetric determinant of the submatrix on
R x C: the signed sum of the ordered products that list R and C in every
order.  Each such value sums the values over one position fewer, times one
factor on the right, and the factor's sign counts the members of R and C
above its row and column.  The sets of size n - 1 are the minors, so the
last n^2 values of the sweep, signed by (-1)^(r+s), are the entries.

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


@lru_cache(maxsize=None)
def _choices(free: tuple):
    """The ways to take the next row (or column) of a prefix from the free
    ones, given in increasing order: (taken, free ones left, odd) triples,
    where odd says an odd number of the free ones lie below the one taken."""
    return tuple((x, free[:i] + free[i + 1 :], i % 2 == 1) for i, x in enumerate(free))


def symmetric_determinant(A: Matrix):
    """The double permutation sum over S_n x S_n, by a depth-first walk over
    ordered prefixes.

    Each ordered prefix is one product on the right of its own prefix, so
    the sum takes the sum over t = 2..n of (n!/(n-t)!)^2 ring
    multiplications, 1,296 at n = 4 where building each of the (n!)^2
    products alone takes 1,728.  The last two factors are written out,
    8 products per prefix; swapping their two columns is the sign flip.
    """
    rows = A.rows
    total = A.ring.accumulator()

    def extend(prefix, free_rows, free_cols, negative):
        # fold in every product that starts with prefix and then takes the
        # free rows and columns in every order
        nonlocal total
        if len(free_rows) == 2:
            (r1, r2), (c1, c2) = free_rows, free_cols
            if negative:
                c1, c2 = c2, c1
            a, b = rows[r1], rows[r2]
            total += prefix * a[c1] * b[c2]
            total += prefix * b[c2] * a[c1]
            total -= prefix * a[c2] * b[c1]
            total -= prefix * b[c1] * a[c2]
        elif not free_rows:
            if negative:
                total -= prefix
            else:
                total += prefix
        else:
            cols = _choices(free_cols)
            for r, rest_rows, odd_row in _choices(free_rows):
                row, flip = rows[r], negative != odd_row
                for c, rest_cols, odd_col in cols:
                    extend(prefix * row[c], rest_rows, rest_cols, flip != odd_col)

    everything = _choices(tuple(range(A.n)))
    for r, rest_rows, odd_row in everything:
        for c, rest_cols, odd_col in everything:
            extend(rows[r][c], rest_rows, rest_cols, odd_row != odd_col)
    return A.ring.total(total)


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _above(mask: int, x: int) -> int:
    return (mask >> x + 1).bit_count()


@lru_cache(maxsize=None)
def _preadjoint_plan(n: int):
    """The steps of the preadjoint sweep: one per pair of equal-size row and
    column sets over 1..n-1 positions, smaller sets first, and last the n^2
    minors that entry (r, s) reads, in row-major order and with (-1)^(r+s)
    folded in.  A step is a tuple of (predecessor index, row, column,
    negative) terms, one per factor it can end in, with index -1 for the
    empty product."""
    full = (1 << n) - 1
    masks = sorted(range(1, full), key=int.bit_count)
    inner = [(R, C, 0) for R in masks for C in masks if R.bit_count() == C.bit_count() < n - 1]
    entries = [(full ^ 1 << s, full ^ 1 << r, r + s) for r in range(n) for s in range(n)]
    index, steps = {}, []
    for rows, cols, flips in inner + entries:
        index[rows, cols] = len(steps)
        terms = []
        for r in _members(rows):
            for c in _members(cols):
                pred = index.get((rows ^ 1 << r, cols ^ 1 << c), -1)
                negative = (_above(rows, r) + _above(cols, c) + flips) % 2 == 1
                terms.append((pred, r, c, negative))
        steps.append(tuple(terms))
    return tuple(steps)


def preadjoint(A: Matrix) -> Matrix:
    """The symmetrized adjugate A*.

    Entry (r, s) sums, over the pairs (alpha, beta) with alpha(s) = s and
    beta(s) = r, the signed ordered product that omits position s, which is
    (-1)^(r+s) times the symmetric determinant of the minor without row s
    and column r.  One sweep over the plan for n builds the symmetric
    determinant of every equal-size submatrix from the next smaller ones,
    one factor on the right, and its last n^2 values are the entries.  The
    plan is built once per n.  A 1x1 matrix maps to [1] (empty product
    convention).
    """
    n = A.n
    if n == 1:
        return Matrix(A.ring, [[A.ring.one]])
    ring, rows = A.ring, A.rows
    add_product = ring.add_product
    table = []
    for terms in _preadjoint_plan(n):
        total = ring.accumulator()
        for pred, r, c, negative in terms:
            if pred >= 0:
                total = add_product(total, table[pred], rows[r][c], negative)
            elif negative:
                total -= rows[r][c]
            else:
                total += rows[r][c]
        table.append(ring.total(total))
    values = table[-n * n :]
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
