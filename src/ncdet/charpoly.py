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
over R[z]: the k-th characteristic polynomial of A is simply the k-th
right (or left) determinant of zI - A computed there.  Its accumulator
holds one base accumulator per z-degree, and ``add_product`` writes a
product into those sums: over a sparse base, two polynomials of degree at
least 2 multiply in one pass of the base product kernel, on their slices
packed into one element (Kronecker substitution, sized per product by the
L1 bound in ``_packed_mul``), and any other product goes slice by slice
through the base ring's ``add_product``.  ``CentralPoly``'s ``+`` and
``*`` are that accumulator run on one or two terms, so the sweep, the
matrix product and the traces sum over R[z] without building a product
or a running sum per term.  A polynomial prints from its top degree down,
and a coefficient whose terms are all negative prints as a minus sign
before its negation.
"""

from __future__ import annotations

from typing import Sequence

from .determinants import _by_side, left_determinant, preadjoint, right_determinant
from .freealg import FreeAlgebra
from .matrices import Matrix
from .perms import signed_permutations
from .rings import IntegerRing, Record, Ring, RingElement, SparseRing, join_signed

# the largest free-algebra witness: generic n = 5 takes 0.31-0.37 s and
# a process peak RSS of 60 MB (Python 3.11.7, 2-core machine); n = 6
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

    def accumulator(self) -> _PolySum:
        return _PolySum(self)

    def add_product(self, acc: _PolySum, x, y, negative: bool = False) -> _PolySum:
        """The sum less (``negative``) or plus ``x * y``, written slice by
        slice into its per-degree sums; operands other than two polynomials
        of an equal ring take ``x * y`` and fold it."""
        if not (
            type(x) is type(y) is CentralPoly
            and (x.ring is self or x.ring == self)
            and (y.ring is self or y.ring == self)
        ):
            product = x * y
            return acc - product if negative else acc + product
        xs, ys = x._coeffs, y._coeffs
        if not xs or not ys:
            return acc
        sums = acc._slices(len(xs) + len(ys) - 1)
        base = self.base
        # a factor of degree 0 or 1, such as an entry of zI - A, makes a few
        # slice products whose right operands keep their cached views, and
        # packing them would cost more than it saves
        if len(xs) > 2 and len(ys) > 2 and isinstance(base, SparseRing):
            element = base.element_type._raw
            for d, terms in enumerate(x._packed_mul(y, -1 if negative else 1)):
                if terms:
                    sums[d] += element(base, terms)
            return acc
        add_product = base.add_product
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                sums[i + j] = add_product(sums[i + j], a, b, negative)
        return acc

    def total(self, acc: _PolySum) -> CentralPoly:
        total = self.base.total
        return CentralPoly(self, [total(s) for s in acc._sums])

    def _identity(self) -> tuple:
        return (self.base,)

    def __repr__(self) -> str:
        return f"PolynomialRing({self.base!r})"


class _PolySum:
    """In-place running sum over one ``PolynomialRing``: a base accumulator
    per z-degree.  ``acc + p`` and ``acc - p`` fold p's coefficients into
    them and return the accumulator itself."""

    __slots__ = ("_ring", "_sums")

    def __init__(self, ring: PolynomialRing):
        self._ring = ring
        self._sums: list = []

    def _slices(self, size: int) -> list:
        sums = self._sums
        if len(sums) < size:
            base = self._ring.base
            sums.extend([base.accumulator() for _ in range(size - len(sums))])
        return sums

    def __add__(self, p, negative: bool = False):
        # __sub__ is this with negative set
        ring = self._ring
        if type(p) is not CentralPoly or p.ring is not ring:
            p = ring.zero._coerce(p)
            if p is None:
                return NotImplemented
        sums = self._slices(len(p._coeffs))
        for d, c in enumerate(p._coeffs):
            sums[d] = sums[d] - c if negative else sums[d] + c
        return self

    def __sub__(self, p):
        return self.__add__(p, True)


class CentralPoly(RingElement):
    """Immutable polynomial in a central z with coefficients in a base ring.

    ``_coeffs`` runs from degree 0 with no zero on top.  Over a sparse base
    ``_norm`` caches the L1 norm that sizes the packed product's slices.
    """

    __slots__ = ("ring", "_coeffs", "_norm")

    _MISMATCH = "polynomials live over different base rings"

    def __init__(self, ring: PolynomialRing, coeffs: Sequence):
        zero = ring.base.zero
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        self.ring = ring
        self._coeffs = tuple(coeffs)
        self._norm = None

    @classmethod
    def _raw(cls, ring: PolynomialRing, coeffs: tuple) -> CentralPoly:
        self = object.__new__(cls)
        self.ring = ring
        self._coeffs = coeffs
        self._norm = None
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
        return self.ring.total(self.ring.accumulator() + self + other)

    __radd__ = __add__

    def __neg__(self) -> CentralPoly:
        return CentralPoly._raw(self.ring, tuple(-c for c in self._coeffs))

    def __mul__(self, other) -> CentralPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.total(self.ring.add_product(self.ring.accumulator(), self, other))

    def _l1(self) -> int:
        """The sum of |coefficient| over every slice and key (sparse base)."""
        if self._norm is None:
            self._norm = sum(abs(c) for e in self._coeffs for c in e._terms.values())
        return self._norm

    def _packed(self, width: int):
        """One base element whose coefficient at each key is the slices'
        coefficients there, slice i shifted up by width * i bits."""
        packed: dict[int, int] = {}
        get = packed.get
        for i, e in enumerate(self._coeffs):
            shift = width * i
            for key, coeff in e._terms.items():
                packed[key] = get(key, 0) + (coeff << shift)
        return self.ring.base.element_type._raw(self.ring.base, packed)

    def _packed_mul(self, other: CentralPoly, sign: int) -> list[dict[int, int]]:
        """The terms of each slice of sign * self * other, degree 0 up; the
        top slices may be empty."""
        # every slot of the product sums distinct products c1 * c2, so its
        # magnitude is at most l1(self) * l1(other) < 2^(width - 1); adding
        # 2^(width - 1) to every slot makes each one a nonnegative width-bit
        # field, read without carries
        width = (self._l1() * other._l1()).bit_length() + 1
        out = self._packed(width)._mul_into(other._packed(width), {}, sign)
        size = len(self._coeffs) + len(other._coeffs) - 1
        half, mask = 1 << (width - 1), (1 << width) - 1
        bias = sum(half << width * d for d in range(size))
        slices: list[dict[int, int]] = [{} for _ in range(size)]
        for key, value in out.items():
            value += bias
            for terms in slices:
                slot = (value & mask) - half
                if slot:
                    terms[key] = slot
                value >>= width
        return slices

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
    n = A.n
    ring = A.ring
    if isinstance(ring, FreeAlgebra) and n > WITNESS_MAX_N:
        raise ValueError(f"generic free-algebra witnesses are limited to n <= {WITNESS_MAX_N}")
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
    items = (x1, x2, x3, x4)
    # the ring of the first argument; plain ints sum in the integers
    ring = getattr(x1, "ring", None) or IntegerRing()
    total = ring.accumulator()
    for images, sign in signed_permutations(4):
        prod = items[images[0]] * items[images[1]] * items[images[2]]
        total = ring.add_product(total, prod, items[images[3]], sign < 0)
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
