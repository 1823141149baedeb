"""Dense square matrices over any ring satisfying the package's ring contract.

Matrices are immutable; products multiply the left factor's entries on the
left, the convention every identity in the package depends on, one
``Ring.dots`` per row, of one sum per entry.  The dimension is capped
(default 6) because generic sdet has (n!)^2 terms, 518,400 at n = 6 and
25,401,600 at n = 7, past the term budget of one running sum, not by its
4,900 ring multiplications at n = 6.

Also houses the commutative oracles (classical determinant and adjugate by
cofactor expansion), the supermatrix parity predicate over the exterior
algebra, and the generic matrix of distinct free generators; the last two
import their algebra's module when they run, so a matrix over the integers
loads neither algebra.
"""

from __future__ import annotations

import operator
from functools import cache
from typing import TYPE_CHECKING, Callable, Sequence

from .rings import Ring, RingElement

if TYPE_CHECKING:
    from .freealg import FreeAlgebra

DIMENSION_CAP = 6


class Matrix(RingElement):
    """Immutable n x n matrix over a fixed ring.  ``+`` and ``-`` work
    entrywise and an int operand of them is that scalar matrix; reflected
    ``-`` and ``**`` come from ``RingElement``.  ``k * M`` and ``M * k``
    scale each entry by the central scalar k, the right factor of every
    entry's product, so one cached view of it serves them all."""

    __slots__ = ("ring", "n", "rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if not 1 <= n <= DIMENSION_CAP:
            raise ValueError(f"dimension {n} outside 1..{DIMENSION_CAP}")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.ring = ring
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, ring: Ring, n: int) -> Matrix:
        return cls.scalar(ring, n, ring.one)

    @classmethod
    def zeros(cls, ring: Ring, n: int) -> Matrix:
        return cls.scalar(ring, n, ring.zero)

    @classmethod
    def scalar(cls, ring: Ring, n: int, value) -> Matrix:
        zero = ring.zero
        return cls(ring, [[value if i == j else zero for j in range(n)] for i in range(n)])

    def with_ring(self, ring: Ring, fn: Callable) -> Matrix:
        """Entrywise image in a ring, the same or another (fn maps each entry)."""
        return Matrix(ring, [[fn(e) for e in row] for row in self.rows])

    def _coerce(self, other) -> Matrix | None:
        if isinstance(other, Matrix):
            self._check_compatible(other)
            return other
        if isinstance(other, int):
            return Matrix.scalar(self.ring, self.n, self.ring.from_int(other))
        return None

    def __add__(self, other, op=operator.add) -> Matrix:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Matrix(self.ring, [list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other) -> Matrix:
        return self.__add__(other, operator.sub)

    def __neg__(self) -> Matrix:
        return self.with_ring(self.ring, lambda e: -e)

    def __mul__(self, other):
        if isinstance(other, int):
            scale = self.ring.from_int(other)
            return self.with_ring(self.ring, lambda e: e * scale)
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_compatible(other)
        ring, columns = self.ring, _product_terms(self.n)[0]
        flat, dots = [x for row in other.rows for x in row], ring.dots
        return Matrix(ring, [dots(left, flat, columns) for left in self.rows])

    def __rmul__(self, other):
        # k * M is M * k: the scale is central
        return self * other if isinstance(other, int) else NotImplemented

    def _check_compatible(self, other: Matrix):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.ring != other.ring:
            raise ValueError("matrices live over different rings")

    def trace(self):
        return self.ring.sum([row[i] for i, row in enumerate(self.rows)])

    def transpose(self) -> Matrix:
        return Matrix(self.ring, list(zip(*self.rows)))

    def minor(self, row: int, col: int) -> Matrix:
        """Delete the given 0-based row and column."""
        if self.n == 1:
            raise ValueError("a 1x1 matrix has no minors")
        rows = [
            [e for j, e in enumerate(r) if j != col]
            for i, r in enumerate(self.rows)
            if i != row
        ]
        return Matrix(self.ring, rows)

    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(e == zero for row in self.rows for e in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)

    def __repr__(self) -> str:
        return f"<Matrix {self.n}x{self.n} over {self.ring!r}>"


@cache
def _product_terms(n: int) -> tuple:
    """(columns, trace): the ``Ring.dots`` plan of row i of X Y over row i
    of X and the flat Y, the terms of entry (i, j) by j, and the
    ``Ring.dot`` terms of tr(X Y) over flat X and Y."""
    columns = tuple(tuple((k, k * n + j, False) for k in range(n)) for j in range(n))
    return columns, tuple((c, c % n * n + c // n, False) for c in range(n * n))


GENERIC_LETTERS = {1: "a", 2: "abcd", 3: "abcdefghp"}


def generic_matrix(n: int) -> tuple[FreeAlgebra, Matrix]:
    """An n x n matrix whose entries are n^2 distinct free generators,
    named by ``GENERIC_LETTERS`` for n <= 3 and a{i}{j} beyond."""
    from .freealg import FreeAlgebra

    if n in GENERIC_LETTERS:
        names = tuple(GENERIC_LETTERS[n])
    else:
        names = tuple(f"a{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    algebra = FreeAlgebra(names)
    gens = iter(algebra.gens())
    rows = [[next(gens) for _ in range(n)] for _ in range(n)]
    return algebra, Matrix(algebra, rows)


def is_supermatrix(A: Matrix, t: int) -> bool:
    """True iff diagonal blocks are purely even and off-diagonal blocks purely odd.

    The block split t puts rows and columns 1..t in the first block and
    t+1..n in the second.  Zero entries count as homogeneous of either
    parity (zero is the one element of both graded parts).
    """
    from .grassmann import GrassmannElem, graded_parts

    if not 1 <= t <= A.n - 1:
        raise ValueError(f"block split t={t} invalid for n={A.n}")
    for i in range(A.n):
        for j in range(A.n):
            entry = A.rows[i][j]
            if not isinstance(entry, GrassmannElem):
                raise ValueError("graded parity check requires exterior-algebra entries")
            even, odd = graded_parts(entry)
            diagonal_block = (i < t) == (j < t)
            bad = odd if diagonal_block else even
            if not bad.is_zero():
                return False
    return True


def commutative_det(A: Matrix):
    """Classical determinant by cofactor expansion; commutative rings only."""
    if not A.ring.is_commutative:
        raise ValueError("classical determinant requires a commutative ring")
    return _det_recursive(A)


def _det_recursive(A: Matrix):
    if A.n == 1:
        return A.rows[0][0]
    plus, minus = [], []
    for j, x in enumerate(A.rows[0]):
        (minus if j % 2 else plus).append(x * _det_recursive(A.minor(0, j)))
    return A.ring.sum(plus, minus)


def commutative_adj(A: Matrix) -> Matrix:
    """Classical adjugate (transposed cofactor matrix); commutative rings only."""
    if not A.ring.is_commutative:
        raise ValueError("classical adjugate requires a commutative ring")
    return _signed_minors(A, _det_recursive)


def _signed_minors(A: Matrix, det) -> Matrix:
    """The matrix whose (r, s) entry is (-1)^(r+s) det(A.minor(s, r)), the
    rule of both the adjugate and the preadjoint.  A 1x1 matrix maps to
    [1]: its one minor is empty, and so is its product."""
    n = A.n
    if n == 1:
        return Matrix(A.ring, [[A.ring.one]])

    def entry(r, s):
        value = det(A.minor(s, r))
        return value if (r + s) % 2 == 0 else -value

    return Matrix(A.ring, [[entry(r, s) for s in range(n)] for r in range(n)])
