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

The preadjoint is computed by a subset dynamic program that keeps factor
order, so it is exact in any ring.  A prefix table holds, for every pair of
equal-size row and column sets (R, C), the signed sum of the ordered
products that place R and C in the first |R| positions; it grows by one
factor on the right.  A suffix table holds the same for the last positions
and grows by one factor on the left.  Entry (r, s) joins a prefix over
s positions with the suffix over the complementary sets, row s and column r
taken out.  The inversions that cross the prefix block, the fixed position
and the suffix block depend only on the sets, so each join carries one sign
fixed in advance.  The permutation-pair enumeration survives as a test
oracle.

From the preadjoint the right and left adjoint sequences are defined by

    P_1 = A*,  P_{k+1} = (A P_1 ... P_k)*
    Q_1 = A*,  Q_{k+1} = (Q_k ... Q_1 A)*

and the k-th right/left determinants are tr(A P_1 ... P_k) and
tr(Q_k ... Q_1 A).  Both equal the symmetric determinant at k = 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .matrices import Matrix, commutative_adj, commutative_det
from .perms import signed_permutations
from .rings import IntegerRing, Record


def symmetric_determinant(A: Matrix):
    """Exact double permutation sum over S_n x S_n."""
    n = A.n
    rows = A.rows
    total = A.ring.accumulator()
    perms = signed_permutations(n)
    for alpha, sign_a in perms:
        for beta, sign_b in perms:
            prod = rows[alpha[0]][beta[0]]
            for t in range(1, n):
                prod = prod * rows[alpha[t]][beta[t]]
            if sign_a * sign_b > 0:
                total += prod
            else:
                total -= prod
    return A.ring.total(total)


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subsets(mask: int, size: int) -> list[int]:
    """The size-element subsets of the set bits of mask, as bitmasks."""
    return [sum(1 << i for i in combo) for combo in combinations(_members(mask), size)]


def _above(mask: int, x: int) -> int:
    return (mask >> x + 1).bit_count()


def _below(mask: int, x: int) -> int:
    return (mask & (1 << x) - 1).bit_count()


def _block_inversions(before: int, middle: int, after: int) -> int:
    """Inversions between the blocks of a permutation that lists the set
    ``before`` (in any order), then ``middle``, then the set ``after``."""
    count = _above(before, middle) + _below(after, middle)
    for x in _members(before):
        count += _below(after, x)
    return count


def _sweep_plan(wanted: set, grow_right: bool):
    """Index and steps of the (row set, column set) states in wanted and of
    every smaller state they are built from.

    A state over k positions sums its k^2 one-factor extensions of states
    over k - 1 positions, so its step is a tuple of (predecessor index, row,
    column, negative) terms, with index -1 for the empty product.  Growing
    on the right the new factor comes last, so each member of the set above
    it is one inversion; growing on the left it comes first, and each member
    below it is one.
    """
    need, frontier = set(wanted), wanted
    while frontier:
        frontier = {
            (rows ^ 1 << r, cols ^ 1 << c)
            for rows, cols in frontier
            if rows.bit_count() > 1
            for r in _members(rows)
            for c in _members(cols)
        } - need
        need |= frontier
    order = sorted(need, key=lambda key: (key[0].bit_count(), key))
    index = {key: i for i, key in enumerate(order)}
    inversions = _above if grow_right else _below
    steps = []
    for rows, cols in order:
        terms = []
        for r in _members(rows):
            for c in _members(cols):
                pred = index.get((rows ^ 1 << r, cols ^ 1 << c), -1)
                flips = inversions(rows, r) + inversions(cols, c)
                terms.append((pred, r, c, flips % 2 == 1))
        steps.append(tuple(terms))
    return index, tuple(steps)


@lru_cache(maxsize=None)
def _preadjoint_plan(n: int):
    """Prefix steps, suffix steps, and per entry (r, s) in row-major order
    the joins (prefix index, suffix index, negative); index -1 is the empty
    product, which is never multiplied."""
    full = (1 << n) - 1
    entries = []
    for r in range(n):
        for s in range(n):
            joins = []
            for R in _subsets(full ^ 1 << s, s):
                S = full ^ 1 << s ^ R
                for C in _subsets(full ^ 1 << r, s):
                    D = full ^ 1 << r ^ C
                    flips = _block_inversions(R, s, S) + _block_inversions(C, r, D)
                    joins.append(((R, C), (S, D), flips % 2 == 1))
            entries.append(joins)
    pre_index, prefix = _sweep_plan({p for e in entries for p, _, _ in e if p[0]}, True)
    suf_index, suffix = _sweep_plan({q for e in entries for _, q, _ in e if q[0]}, False)
    joins = tuple(
        tuple((pre_index.get(p, -1), suf_index.get(q, -1), negative) for p, q, negative in e)
        for e in entries
    )
    return prefix, suffix, joins


def _sweep(steps, A: Matrix, grow_right: bool) -> list:
    """The value of every state of a sweep plan on the matrix A."""
    ring, rows = A.ring, A.rows
    table = []
    for terms in steps:
        total = ring.accumulator()
        for pred, r, c, negative in terms:
            term = rows[r][c]
            if pred >= 0:
                term = table[pred] * term if grow_right else term * table[pred]
            if negative:
                total -= term
            else:
                total += term
        table.append(ring.total(total))
    return table


def preadjoint(A: Matrix) -> Matrix:
    """The symmetrized adjugate A*.

    Entry (r, s) sums, over the pairs (alpha, beta) with alpha(s) = s and
    beta(s) = r, the signed ordered product that omits position s.  It is
    evaluated as sum of +-prefix[R, C] * suffix[S, D] over the row and
    column sets R, C of size s that avoid s and r, where S and D are their
    complements with s and r taken out: the prefix table sums the ordered
    products over the first s positions, the suffix table over the last
    n - 1 - s, and the sign of each join depends only on the four sets.
    The index plan is built once per n.  A 1x1 matrix maps to [1] (empty
    product convention).
    """
    n = A.n
    if n == 1:
        return Matrix(A.ring, [[A.ring.one]])
    ring = A.ring
    prefix, suffix, entries = _preadjoint_plan(n)
    pre = _sweep(prefix, A, True)
    suf = _sweep(suffix, A, False)
    values = []
    for joins in entries:
        total = ring.accumulator()
        for p, q, negative in joins:
            if p < 0:
                term = suf[q]
            elif q < 0:
                term = pre[p]
            else:
                term = pre[p] * suf[q]
            if negative:
                total -= term
            else:
                total += term
        values.append(ring.total(total))
    return Matrix(ring, [values[r * n : (r + 1) * n] for r in range(n)])


def preadjoint_via_minors(A: Matrix) -> Matrix:
    """A* computed entrywise as (-1)^(r+s) sdet of the (s, r)-deleted minor."""
    n = A.n
    if n == 1:
        raise ValueError("minor formula needs n >= 2")
    rows = []
    for r in range(n):
        row = []
        for s in range(n):
            value = symmetric_determinant(A.minor(s, r))
            row.append(value if (r + s) % 2 == 0 else -value)
        rows.append(row)
    return Matrix(A.ring, rows)


class AdjointSequence(Record):
    """The right (P_k) or left (Q_k) adjoint sequence of a matrix."""

    __slots__ = ("side", "base", "matrices")
    side: str
    base: Matrix
    matrices: tuple[Matrix, ...]


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


def adjoint_sequence(A: Matrix, side: str, k: int) -> AdjointSequence:
    """P_1..P_k (right) or Q_1..Q_k (left), by the defining recursion."""
    steps, _ = _adjoint_walk(A, side, k)
    return AdjointSequence(side=side, base=A, matrices=steps)


def sequence_product(A: Matrix, side: str, k: int) -> Matrix:
    """The traced product: A P_1 ... P_k (right) or Q_k ... Q_1 A (left)."""
    _, (x, y) = _adjoint_walk(A, side, k)
    return x * y


def trace_of_product(X: Matrix, Y: Matrix):
    """tr(X Y) without forming the full product matrix."""
    X._check_compatible(Y)
    total = X.ring.accumulator()
    for i in range(X.n):
        for j in range(X.n):
            total += X.rows[i][j] * Y.rows[j][i]
    return X.ring.total(total)


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

    The defect has zero trace, and over the free algebra every entry lies
    in the additive commutator subgroup [R,R].
    """
    product = sequence_product(A, side, 1)
    scalar = product.trace()
    defect = product * A.n - Matrix.scalar(A.ring, A.n, scalar)
    if defect.trace() != A.ring.zero:
        raise ArithmeticError("defect trace is nonzero; determinant core is inconsistent")
    return CommutatorDefect(scalar=scalar, defect=defect)


def conjugate(A: Matrix, T) -> Matrix:
    """T^-1 A T for a unimodular integer matrix T acting by central scalars.

    T may be a Matrix over the integer ring or a plain list of int rows;
    its determinant must be +1 or -1 so the inverse is again integral.
    """
    ints = IntegerRing()
    if not isinstance(T, Matrix):
        T = Matrix(ints, T)
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
