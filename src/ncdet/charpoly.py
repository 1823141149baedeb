"""Polynomials in one central indeterminate, characteristic polynomials,
Cayley--Hamilton witnesses, the degree-four standard polynomial, and the
symmetric Newton trace formulas for 2x2 and 3x3 matrices.

A ``CentralPoly`` is a coefficient list over any ring of the package;
the indeterminate z commutes with everything, so the product of two
polynomials multiplies coefficients in the base ring with the left
factor's coefficient on the left.  ``PolynomialRing`` implements the ring
contract, which lets the whole matrix/determinant machinery run unchanged
over R[z]: the k-th characteristic polynomial of A is simply the k-th
right (or left) determinant of zI - A computed there.  A polynomial
prints from its top degree down, and a coefficient whose terms are all
negative prints as a minus sign before its negation.
"""

from __future__ import annotations

import math
from typing import Sequence

from .determinants import _by_side, left_determinant, preadjoint, right_determinant
from .freealg import FreeAlgebra
from .grassmann import GrassmannAlgebra
from .matrices import Matrix
from .perms import signed_permutations
from .rings import IntegerRing, Record, Ring, RingElement, join_signed

# the largest free-algebra witness: generic n = 5 takes 0.41-0.47 s and
# a process peak RSS of 87 MB (Python 3.11.7, 2-core machine); n = 6
# exhausts gigabytes of memory
WITNESS_MAX_N = 5


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

    def _identity(self) -> tuple:
        return (self.base,)

    def __repr__(self) -> str:
        return f"PolynomialRing({self.base!r})"


class CentralPoly(RingElement):
    """Immutable polynomial in a central z with coefficients in a base ring."""

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
        # elements are immutable, so a sum with zero is the other operand
        if not self._coeffs:
            return other
        if not other._coeffs:
            return self
        size = max(len(self._coeffs), len(other._coeffs))
        coeffs = [self.coeff(i) + other.coeff(i) for i in range(size)]
        return CentralPoly(self.ring, coeffs)

    __radd__ = __add__

    def __neg__(self) -> CentralPoly:
        return CentralPoly._raw(self.ring, tuple(-c for c in self._coeffs))

    def __mul__(self, other) -> CentralPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.ring.zero
        base = self.ring.base
        out = [base.accumulator() for _ in range(len(self._coeffs) + len(other._coeffs) - 1)]
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return CentralPoly(self.ring, [base.total(acc) for acc in out])

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
    zero = A.ring.zero
    one = A.ring.one
    rows = []
    for i in range(A.n):
        row = []
        for j in range(A.n):
            entry = A.rows[i][j]
            if i == j:
                row.append(CentralPoly(ring, [-entry, one]))
            else:
                row.append(CentralPoly(ring, [-entry, zero]))
        rows.append(row)
    return Matrix(ring, rows)


def characteristic_polynomial(A: Matrix, side: str = "right", k: int = 1) -> CentralPoly:
    """The k-th right/left determinant of zI - A, computed in R[z]."""
    return _by_side(side, right_determinant, left_determinant)(char_matrix(A), k)


def matrix_poly_coefficients(M: Matrix) -> list[Matrix]:
    """Degree slices of a matrix over R[z]: a list of matrices over R."""
    ring = M.ring
    if not isinstance(ring, PolynomialRing):
        raise ValueError("expected a matrix over a polynomial ring")
    top = max((entry.degree() for row in M.rows for entry in row), default=-1)
    slices = []
    for d in range(top + 1):
        slices.append(Matrix(ring.base, [[entry.coeff(d) for entry in row] for row in M.rows]))
    return slices


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
    checks the identities they satisfy.
    """
    n = A.n
    ring = A.ring
    if isinstance(ring, FreeAlgebra) and n > WITNESS_MAX_N:
        raise ValueError(f"generic free-algebra witnesses are limited to n <= {WITNESS_MAX_N}")
    B = char_matrix(A)
    P = preadjoint(B)
    right_product, left_product = B * P, P * B
    p = right_product.trace()
    lambdas = tuple(p.coeff(i) for i in range(n + 1))
    # n (zI - A)(zI - A)* has degree n exactly (its top slice is n! I), so
    # each side has the n + 1 slices of degrees 0..n
    right_slices = matrix_poly_coefficients(right_product * n)
    left_slices = matrix_poly_coefficients(left_product * n)
    scalars = [Matrix.scalar(ring, n, lam) for lam in lambdas]
    right_defects = tuple(S - L for S, L in zip(right_slices, scalars, strict=True))
    left_defects = tuple(S - L for S, L in zip(left_slices, scalars, strict=True))
    return CHWitness(lambdas=lambdas, right_defects=right_defects, left_defects=left_defects)


def substitute(
    A: Matrix, right: Sequence[Matrix], left: Sequence[Matrix]
) -> tuple[Matrix, Matrix]:
    """(sum_i A^i right[i], sum_i left[i] A^i), forming each power of A once.

    Both coefficient lists run from degree 0 and have the same length; the
    right coefficients multiply each power on the right, the left ones on
    the left.
    """
    right_sum = left_sum = Matrix.zeros(A.ring, A.n)
    power = Matrix.identity(A.ring, A.n)
    for i, (c, d) in enumerate(zip(right, left, strict=True)):
        if i:
            power = power * A
        right_sum = right_sum + power * c
        left_sum = left_sum + d * power
    return right_sum, left_sum


def scalar_leading_coefficient(n: int, k: int) -> int:
    """n ((n-1)!)^(1 + n + ... + n^(k-1)), the top coefficient of p_{A,k}."""
    exponent = sum(n**i for i in range(k))
    return n * math.factorial(n - 1) ** exponent


def scalar_ch_residuals(A: Matrix, k: int = 2) -> dict[str, object]:
    """Residual matrices of the scalar-coefficient CH substitutions.

    ``right`` substitutes A into p_{A,k} with coefficients multiplied on
    the right of each power, ``left`` substitutes into q_{A,k} with
    coefficients on the left; ``leading`` is the top coefficient of p_{A,k}.
    """
    p = characteristic_polynomial(A, "right", k)
    q = characteristic_polynomial(A, "left", k)
    degrees = range(A.n**k + 1)
    right, left = substitute(
        A,
        [Matrix.scalar(A.ring, A.n, p.coeff(i)) for i in degrees],
        [Matrix.scalar(A.ring, A.n, q.coeff(i)) for i in degrees],
    )
    return {"right": right, "left": left, "leading": p.coeff(A.n**k)}


def scalar_cayley_hamilton_check(A: Matrix, k: int = 2) -> bool:
    """Scalar-coefficient Cayley--Hamilton over a Lie-nilpotent ring of index 2.

    Requires exterior-algebra entries.  Also checks the stated leading
    coefficient of p_{A,k}.
    """
    if not isinstance(A.ring, GrassmannAlgebra):
        raise ValueError("scalar CH check runs over the exterior algebra")
    residuals = scalar_ch_residuals(A, k)
    expected = A.ring.from_int(scalar_leading_coefficient(A.n, k))
    if residuals["leading"] != expected:
        return False
    return residuals["right"].is_zero() and residuals["left"].is_zero()


def standard_polynomial_4(x1, x2, x3, x4):
    """S_4: the signed sum of all 24 orderings of four ring elements."""
    items = (x1, x2, x3, x4)
    # the ring of the first argument; plain ints sum in the integers
    ring = getattr(x1, "ring", None) or IntegerRing()
    total = ring.accumulator()
    for images, sign in signed_permutations(4):
        prod = items[images[0]]
        for t in images[1:]:
            prod = prod * items[t]
        if sign > 0:
            total += prod
        else:
            total -= prod
    return ring.total(total)


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
