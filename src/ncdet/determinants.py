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
of the ordered products that list R and C in every order.  The states
over t positions form level t, and level 1 is the entries.  Each state of
level t sums the states over its row and column sets less one member
each, times that row and column's entry on the right, and the sign
counts the members of R and C above them: one ``Ring.dots`` per level,
of one sum per state.
Both the predecessor and the sign split into a row part and a column
part, so each level is planned from one list of drops per t-set, built
the first time a caller reads that level.  The states of the top level,
n - 1, with (-1)^(r+s) in their signs, are the entries of the
preadjoint.  The symmetric determinant splits at k = ceil(n/2)
positions: one ``Ring.dot`` over row and column sets (R, C) of k
positions of the state on (R, C) times the state on their complements,
signed by the inversions between each set and its complement, so it
builds and runs only levels up to k, whose halves signs undo the top
level's (-1)^(r+s).  At n = 3 sdet is tr(A* A) (Thm 3.1) over the top
level's terms instead, left unsummed: each term, an entry times its
factor, times the entry of A it meets in the trace.
The double sum itself lives on as a test oracle.

From the preadjoint the right and left adjoint sequences are defined by

    P_1 = A*,  P_{k+1} = (A P_1 ... P_k)*
    Q_1 = A*,  Q_{k+1} = (Q_k ... Q_1 A)*

and the k-th right/left determinants are tr(A P_1 ... P_k) and
tr(Q_k ... Q_1 A).  The k-th step is X* for the running product X before
it (A at k = 1), so both are sdet(X) by Thm 3.1: its halves at every n.
"""

from __future__ import annotations

from .matrices import Matrix, _product_terms, _signed_minors, commutative_adj, commutative_det
from .rings import IntegerRing, Record


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subsets(n: int, t: int) -> list[int]:
    """The t-subsets of range(n) as bit masks, in increasing mask order."""
    return [m for m in range(1 << n) if m.bit_count() == t]


_levels: dict = {}


def _level(n: int, t: int):
    """Level t of the sweep for n >= 2, 1 <= t <= n - 1, as (drops, steps,
    signs), built on first use and cached per (n, t) in ``_levels``.

    The t-sets come in increasing mask order, and the state on the row and
    column sets of ranks (i, j) has index i C(n,t) + j.  ``drops[i]`` lists,
    for each member x of the set of rank i in increasing order, the rank of
    the set less x among the (t-1)-sets, x and the parity of the members
    above x.  At the top level, t = n - 1, the parity also counts the set's
    missing member, so the top's states are the entries of the preadjoint:
    A*[r][s] is the state on (rows less s, columns less r), at index
    (n-1-s) n + n-1-r.  ``steps`` derives from the drops the level's
    ``Ring.dots`` plan: the terms of each state, (predecessor, entry
    r n + c, negative) over the level below and the flat entries.
    ``halves`` are those of sdet's split at t positions, (i, last - i,
    negative) over this level and level n - t read backwards, negative for
    inv(R) + inv(C) odd at the state i on (R, C), where inv of a set counts
    the pairs x in it and y not in it with x > y: the sum of its members
    less t(t-1)/2.  R and C both have t members, so the two t(t-1)/2 cancel
    and a state keeps only the parity of its member sum, plus the missing
    member on a top level the sweep builds (t = n - 1 >= 2, not the
    entries), for its (-1)^(r+s).
    """
    level = _levels.get((n, t))
    if level is None:
        rank = {m: i for i, m in enumerate(_subsets(n, t - 1))}
        width, full = len(rank), (1 << n) - 1
        drops, inv = [], []
        for m in _subsets(n, t):
            missing = (full ^ m).bit_length() - 1 if t == n - 1 else 0
            members = _members(m)
            drops.append(tuple((rank[m ^ 1 << x], x, ((m >> x + 1).bit_count() + missing) % 2 == 1) for x in members))
            inv.append((sum(members) + (missing if t > 1 else 0)) % 2 == 1)
        steps = tuple(
            tuple((i * width + j, r * n + c, p != q) for i, r, p in rows for j, c, q in cols)
            for rows in drops
            for cols in drops
        )
        last, signs = len(inv) ** 2 - 1, enumerate(p != q for p in inv for q in inv)
        level = _levels[n, t] = tuple(drops), steps, tuple((i, last - i, neg) for i, neg in signs)
    return level


def _sweep(ring, rows, top: int) -> list:
    """The sweep's states by level, ``levels[t]`` for t = 0..max(top, 1):
    level 0 the empty product, level 1 the entries, row-major, then the
    value of each step of levels 2..top, the signed sum of its
    predecessors' values times one entry on the right, one ``Ring.dots``
    per level."""
    n, dots = len(rows), ring.dots
    levels = [[ring.one], [x for row in rows for x in row]]
    for t in range(2, top + 1):
        levels.append(dots(levels[-1], levels[1], _level(n, t)[1]))
    return levels


def _halves(A: Matrix):
    """sdet(A) as one product of two sweep halves per pair of row and
    column sets.

    Cut every ordered product after its first k = ceil(n/2) factors: the
    pairs (alpha, beta) whose first k positions take row set R and column
    set C give the state on (R, C) times the state on the complements, so

        sdet(A) = sum over |R| = |C| = k of
            (-1)^(inv(R) + inv(C)) sdet(A[R, C]) sdet(A[R', C'])

    in any ring, as each product keeps its left-to-right order.  inv(R) +
    inv(C) is the sum of the members of R and C less k(k-1), so the sign
    reads only the parity of that member sum.  The sweep builds and runs
    only levels up to k, and complementing reverses mask order, so the
    state on (R', C') is level n - k read backwards.  The pairs are one
    ``Ring.dot`` over the two halves: with the sweep's own products 4, 45,
    180, 1,400 and 4,900 ring multiplications at n = 2..6.
    """
    n, ring, rows = A.n, A.ring, A.rows
    if n == 1:
        return ring.sum([rows[0][0]])
    k = (n + 1) // 2
    levels = _sweep(ring, rows, k)
    return ring.dot(levels[k], levels[n - k], _level(n, k)[2])


def symmetric_determinant(A: Matrix):
    """The double permutation sum over S_n x S_n: ``_halves`` but at n = 3.

    There it is Thm 3.1's tr(A* A) with each entry of A* left as the
    terms of its state on the top level: entry (r, s) is a signed sum of
    entries, each times one entry on the right, and it meets A[s][r] on
    the right, two products per term: 72 ring multiplications and one
    ``Ring.sum``, which the benchmark's tests pin until ROADMAP item 1
    re-pins them to the halves' 45.
    """
    n, ring, rows = A.n, A.ring, A.rows
    if n != 3:
        return _halves(A)
    entries, top = [x for row in rows for x in row], _level(n, n - 1)[1]
    plus, minus = [], []
    for i in range(n * n):
        r, s = divmod(i, n)  # entry (r, s) of A* meets A[s][r]
        for pred, cell, negative in top[(n - 1 - s) * n + n - 1 - r]:
            (minus if negative else plus).append(entries[pred] * entries[cell] * rows[s][r])
    return ring.sum(plus, minus)


def preadjoint(A: Matrix) -> Matrix:
    """The symmetrized adjugate A*.

    Entry (r, s) sums, over the pairs (alpha, beta) with alpha(s) = s and
    beta(s) = r, the signed ordered product that omits position s, which is
    (-1)^(r+s) times the symmetric determinant of the minor without row s
    and column r.  The sweep builds the symmetric determinant of every
    equal-size submatrix from the next smaller ones, one factor on the
    right, and its top level, over n-1 positions with (-1)^(r+s) in its
    signs, holds the entries.  Each level is built once per n and shared
    with ``symmetric_determinant``.  A 1x1 matrix maps to [1] (empty
    product convention): its top is level 0.
    """
    n, ring, rows = A.n, A.ring, A.rows
    if n == 2:
        # the top is level 1: each state is the empty product times one entry
        entries = rows[0] + rows[1]
        top = [-entries[c] if negative else entries[c] for ((_, c, negative),) in _level(2, 1)[1]]
    else:
        top = _sweep(ring, rows, n - 1)[n - 1]
    # A*[r][s] is the state at (n-1-s) n + n-1-r: the top read backwards, every n-th
    return Matrix(ring, [top[n * n - 1 - r :: -n] for r in range(n)])


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
    product is formed only by ``sequence_product``, which asks for it.
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
    flat = [x for row in X.rows for x in row], [y for row in Y.rows for y in row]
    return X.ring.dot(*flat, _product_terms(X.n)[1])


def _kth_determinant(A: Matrix, side: str, k: int):
    """tr(X X*) (right) or tr(X* X) (left) for the running product X before
    the k-th step, A P_1 ... P_{k-1} or Q_{k-1} ... Q_1 A: sdet(X) by
    Thm 3.1, so the sweep's halves of X at every n."""
    return _halves(A if k == 1 else sequence_product(A, side, k - 1))


def right_determinant(A: Matrix, k: int = 1):
    """The k-th right determinant tr(A P_1 ... P_k), sdet(A P_1 ... P_{k-1})."""
    return _kth_determinant(A, "right", k)


def left_determinant(A: Matrix, k: int = 1):
    """The k-th left determinant tr(Q_k ... Q_1 A), sdet(Q_{k-1} ... Q_1 A)."""
    return _kth_determinant(A, "left", k)


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
