"""Polynomials in one central indeterminate, characteristic polynomials,
Cayley--Hamilton witnesses, the degree-four standard polynomial, and the
symmetric Newton trace formulas for 2x2 and 3x3 matrices.  These
functions compute data; whether the data satisfy the Cayley--Hamilton
theorems (matrix and scalar coefficients) is decided in ``verify``.

A ``CentralPoly`` is a coefficient list over any ring of the package;
the indeterminate z commutes with everything, so the product of two
polynomials multiplies coefficients in the base ring with the left
factor's coefficient on the left.  ``PolynomialRing`` implements the ring
contract, which lets the whole matrix/determinant machinery run unchanged
over R[z].  Its ``dot`` is one base ``dots`` over the operands'
coefficients, of one sum per z-degree, and ``CentralPoly``'s ``*`` is
that ``dot`` on one term, so the sweep, the matrix product and the traces
sum over R[z] without building a product polynomial per term, and the
integers sum every degree of a product in one loop; ``+`` adds coefficient
by coefficient, and a running sum is the zero polynomial and ``+``.  The
k-th characteristic polynomial of A is the k-th right (or left)
determinant of zI - A: over the exterior algebra one determinant of
2^B I - A over R, read back as one balanced B-bit digit per z-degree, and
over other rings computed in R[z].  A polynomial prints from its top
degree down, and a coefficient whose terms are all negative prints as a
minus sign before its negation.  The module loads neither algebra nor
``perms``: the exterior-algebra route and the free-algebra witness cap
test a ring's class only once its module is loaded, and
``standard_polynomial_4`` imports ``perms`` when it runs.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .determinants import _by_side, left_determinant, preadjoint, right_determinant
from .matrices import Matrix
from .rings import IntegerRing, Record, Ring, RingElement, _instance_of, _operand, join_signed

WITNESS_MAX_N = 5


def _check_witness_size(A: Matrix) -> None:
    """Refuse a free-algebra witness past n = WITNESS_MAX_N: generic n = 5 takes
    0.31-0.37 s and a process peak RSS of 60 MB (Python 3.11.7, 2-core machine);
    n = 6 exhausts gigabytes of memory.  Other rings' witnesses have no limit."""
    if A.n > WITNESS_MAX_N and _instance_of(A.ring, "freealg", "FreeAlgebra"):
        raise ValueError(f"generic free-algebra witnesses are limited to n <= {WITNESS_MAX_N}")


class PolynomialRing(Ring):
    """R[z] for a base ring R; z is central."""

    def __init__(self, base: Ring):
        self.base = base

    @property
    def is_commutative(self) -> bool:  # type: ignore[override]
        return self.base.is_commutative

    @property
    def zero(self) -> CentralPoly:
        return CentralPoly._raw(self, ())

    @property
    def one(self) -> CentralPoly:
        return CentralPoly._raw(self, (self.base.one,))

    def from_int(self, k: int) -> CentralPoly:
        return CentralPoly(self, [self.base.from_int(k)])

    def dot(self, xs, ys, terms) -> CentralPoly:
        """The sum over (i, j, negative) in ``terms`` of ``xs[i] * ys[j]``,
        less where ``negative`` is set, as one base ``dots`` of one sum
        per z-degree.

        The operands' coefficients go into one flat list, and degree d sums
        the coefficient products a_s b_t with s + t = d.  Operands are
        coerced or refused as ``*`` does.
        """
        flat, slices = [], []
        for i, j, negative in terms:
            x, y = xs[i], ys[j]
            if type(x) is not CentralPoly or x.ring is not self:
                x = _operand(self, x, "*")
            if type(y) is not CentralPoly or y.ring is not self:
                y = _operand(self, y, "*")
            p, m, k = len(flat), len(x._coeffs), len(y._coeffs)
            flat += x._coeffs
            flat += y._coeffs
            while len(slices) < m + k - 1:
                slices.append([])
            right = range(p + m, p + m + k)  # where y's coefficients sit in flat
            for s in range(m):
                for d, b in enumerate(right, s):
                    slices[d].append((p + s, b, negative))
        return CentralPoly(self, self.base.dots(flat, flat, slices))

    def _identity(self) -> tuple:
        return (self.base,)

    def __repr__(self) -> str:
        return f"PolynomialRing({self.base!r})"


class CentralPoly(RingElement):
    """Immutable polynomial in a central z with coefficients in a base ring.

    ``_coeffs`` runs from degree 0 with no zero on top.
    """

    __slots__ = ("ring", "_coeffs")

    _MISMATCH = "polynomials live over different base rings"

    def __init__(self, ring: PolynomialRing, coeffs: Sequence):
        zero = ring.base.zero
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        self.ring = ring
        self._coeffs = tuple(coeffs)

    @classmethod
    def _raw(cls, ring: PolynomialRing, coeffs: tuple) -> CentralPoly:
        self = object.__new__(cls)
        self.ring = ring
        self._coeffs = coeffs
        return self

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def degree(self) -> int:
        """Highest z-degree with nonzero coefficient; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, i: int):
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return self.ring.base.zero

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other) -> CentralPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return CentralPoly(self.ring, [*map(operator.add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self) -> CentralPoly:
        return CentralPoly._raw(self.ring, tuple(-c for c in self._coeffs))

    def __mul__(self, other) -> CentralPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.dot((self,), (other,), ((0, 0, False),))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return (
            isinstance(other, CentralPoly)
            and self.ring == other.ring
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        if len(self._coeffs) <= 1:
            # a constant hashes as its coefficient, so one equal to an int
            # hashes as that int
            return hash(self.coeff(0))
        return hash((self.ring, self._coeffs))

    def __str__(self) -> str:
        pieces = []
        for d in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[d]
            if c == self.ring.base.zero:
                continue
            text = str(c)
            # pulled out as a sign exactly when every term is negative
            negative = text.startswith("-") and " + " not in text
            if negative:
                text = text[1:].replace(" - ", " + ")
            if (" + " in text) or (" - " in text):
                text = f"({text})"
            if d == 0:
                body = text
            else:
                zpart = "z" if d == 1 else f"z^{d}"
                body = zpart if text == "1" else f"{text}*{zpart}"
            pieces.append((negative, body))
        return join_signed(pieces)


def char_matrix(A: Matrix) -> Matrix:
    """zI - A as a matrix over R[z]."""
    ring = PolynomialRing(A.ring)
    z = CentralPoly(ring, [A.ring.zero, A.ring.one])
    return Matrix.scalar(ring, A.n, z) - A.with_ring(ring, lambda e: CentralPoly(ring, [e]))


def characteristic_polynomial(A: Matrix, side: str = "right", k: int = 1) -> CentralPoly:
    """The k-th right/left determinant of zI - A.

    Over the exterior algebra z -> 2^B maps R[z] onto R (both are central),
    so it is the determinant of 2^B I - A over R, split by
    ``_balanced_slices``; any other base computes in R[z] on
    ``char_matrix(A)``.
    """
    determinant = _by_side(side, right_determinant, left_determinant)
    ring, n = A.ring, A.n
    if not _instance_of(ring, "grassmann", "GrassmannAlgebra"):
        return determinant(char_matrix(A), k)
    # nu(x), the sum of |coefficient| over x's terms, is subadditive and
    # submultiplicative in R and R[z].  r bounds nu of an entry of zI - A,
    # then of the running products A P_1 ... P_j, whose entries sum n
    # products of an entry and a preadjoint entry of ((n-1)!)^2 products;
    # the trace sums n^2 of them, so every coefficient is below 2^(width - 1)
    squared = math.factorial(n - 1) ** 2
    entries = [(i == j, ring.zero + e) for i, row in enumerate(A.rows) for j, e in enumerate(row)]
    r = max(diagonal + sum(map(abs, e._terms.values())) for diagonal, e in entries)
    for _ in range(k - 1):
        r = n * squared * r**n
    width = (n * n * squared * r**n).bit_length() + 1
    value = determinant(Matrix.scalar(ring, n, ring.from_int(1 << width)) - A, k)
    return CentralPoly(PolynomialRing(ring), _balanced_slices(value, width, n**k + 1))


def _balanced_slices(value, width: int, size: int) -> list:
    """c_0..c_(size-1) from a sparse element whose every coefficient is
    sum_d c_d 2^(width d) with |c_d| < 2^(width - 1).  Adding 2^(width - 1)
    to every c_d makes each a nonnegative width-bit field, read without
    carries."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    bias = half * ((1 << width * size) - 1) // mask
    slices: list[dict[int, int]] = [{} for _ in range(size)]
    for key, coeff in value._terms.items():
        coeff += bias
        for terms in slices:
            slot = (coeff & mask) - half
            if slot:
                terms[key] = slot
            coeff >>= width
    element, ring = value.ring.element_type._raw, value.ring
    return [element(ring, terms) for terms in slices]


class CHWitness(Record):
    """Coefficient data of the matrix-coefficient Cayley--Hamilton identities.

    lambdas holds the coefficients of the first characteristic polynomial
    (lambdas[n] is n! as a central scalar); right_defects and left_defects
    are the matrices C_i and D_i, trace-zero by Theorem 2.6, with

        sum_i A^i (lambdas[i] I + C_i) = 0
        sum_i (lambdas[i] I + D_i) A^i = 0,

    as ``verify --suite thm2_6`` checks.
    """

    __slots__ = ("lambdas", "right_defects", "left_defects")
    lambdas: tuple
    right_defects: tuple[Matrix, ...]
    left_defects: tuple[Matrix, ...]


def cayley_hamilton_witness(A: Matrix) -> CHWitness:
    """lambdas, C_i and D_i read off n (zI - A)(zI - A)* and n (zI - A)*(zI - A).

    lambdas are the coefficients of tr((zI - A)(zI - A)*), and C_i, D_i the
    degree-i slices of the two products less lambdas[i] I; nothing here
    checks the identities they satisfy.  With P_d the degree-d slice of
    (zI - A)*, the degree-d slices of the products are P_{d-1} - A P_d and
    P_{d-1} - P_d A, so no matrix over R[z] is multiplied.
    """
    _check_witness_size(A)
    n = A.n
    ring = A.ring
    P = preadjoint(char_matrix(A))
    slices = [Matrix(ring, [[e.coeff(d) for e in row] for row in P.rows]) for d in range(n)]
    # (zI - A)* has degree n - 1 (its top slice is (n-1)! I), so each
    # product has the n + 1 slices of degrees 0..n
    zero = Matrix.zeros(ring, n)
    lower = [zero, *slices]
    right = [S - T for S, T in zip(lower, [*(A * S for S in slices), zero])]
    left = [S - T for S, T in zip(lower, [*(S * A for S in slices), zero])]
    lambdas = tuple(M.trace() for M in right)
    scalars = [Matrix.scalar(ring, n, lam) for lam in lambdas]
    right_defects = tuple(M * n - L for M, L in zip(right, scalars))
    left_defects = tuple(M * n - L for M, L in zip(left, scalars))
    return CHWitness(lambdas=lambdas, right_defects=right_defects, left_defects=left_defects)


def standard_polynomial_4(x1, x2, x3, x4):
    """S_4: the signed sum of all 24 orderings of four ring elements."""
    from .perms import signed_permutations

    items = (x1, x2, x3, x4)
    # the ring of the first argument that has one; plain ints sum in the integers
    ring = next((x.ring for x in items if hasattr(x, "ring")), IntegerRing())
    orderings = signed_permutations(4)
    heads = [items[p[0]] * items[p[1]] * items[p[2]] for p, _ in orderings]
    terms = [(i, p[3], sign < 0) for i, (p, sign) in enumerate(orderings)]
    return ring.dot(heads, items, terms)


def newton_sdet_2(A: Matrix):
    """tr(A)^2 - tr(A^2); equals the symmetric determinant for n = 2."""
    if A.n != 2:
        raise ValueError("this trace formula is specific to 2x2 matrices")
    t = A.trace()
    return t * t - (A * A).trace()


def newton_sdet_3(A: Matrix):
    """The six-term 3x3 trace formula for the symmetric determinant.

    tr^3(A) - tr(A) tr(A^2) - tr(A tr(A) A) - tr(A^2) tr(A)
            + tr(A^3) + tr((A^T)^3)

    evaluated exactly as written: the inserted scalar in the middle term
    sits between the two factors of A, and the factor order of every
    product is preserved.
    """
    if A.n != 3:
        raise ValueError("this trace formula is specific to 3x3 matrices")
    t = A.trace()
    A2 = A * A
    t2 = A2.trace()
    transposed = A.transpose()
    middle = (A * Matrix.scalar(A.ring, 3, t) * A).trace()
    return (
        t * t * t
        - t * t2
        - middle
        - t2 * t
        + (A2 * A).trace()
        + (transposed * transposed * transposed).trace()
    )
