"""Independent oracles used to cross-check the library's primary routes.

Nothing here shares code with the package internals: permutations come
from Heap's algorithm with the sign maintained by swap parity, the
double-sum determinant and preadjoint are evaluated directly from their
definitions, free-algebra products concatenate tuple words and render in
(length, word) order, exterior-algebra products take each sign from an
inversion count of the concatenated generator indices, and commutator-subgroup
membership is decided by integer lattice reduction over an explicit basis
of monomial commutators.  ``rank_mod_p`` is a plain Gaussian elimination
over a prime field, for the coefficient-matrix ranks of generic sdet.

``IntMatrixRing`` is a fourth ring, m x m integer matrices, written only
against the ring contract (``rings.Ring`` and ``rings.RingElement``), so
the package's routes must run on a ring they were not written for.

``central_poly_product_slices`` multiplies two polynomials over R[z] one
pair of z-degrees at a time with the base ring's ``+`` and ``*``, and
``charpoly_by_interpolation`` reaches p_{A,k} and q_{A,k} without R[z]:
it evaluates rdet_k/ldet_k of z0 I - A at the integers z0 = 0..n^k and
interpolates each key's coefficients with exact fractions.

``reverse`` is each ring's reversal anti-automorphism rho, with
rho(xy) = rho(y) rho(x), built from public terms and constructors: it
reads every free-algebra word backwards, signs an exterior-algebra
k-subset by (-1)^(k(k-1)/2), fixes an integer and reverses each
coefficient of a polynomial in the central z.

``power_sums`` evaluates the one-sided Cayley--Hamilton sums
sum_i A^i right[i] and sum_i left[i] A^i term by term, forming each power
of A once, as the reference for the Horner evaluation in ``verify``.

``ring_axiom_check`` spot-checks the ring axioms on seeded random triples
of sample elements and returns one verdict per axiom in an ``AxiomReport``
(a ``rings.Record``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from ncdet import (
    CentralPoly,
    FreePoly,
    GrassmannElem,
    IntegerRing,
    Matrix,
    PolynomialRing,
    left_determinant,
    right_determinant,
)
from ncdet.rings import Record, Ring, RingElement


def heap_signed_permutations(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All permutations of range(n) by Heap's algorithm; sign flips per swap."""
    perm = list(range(n))
    sign = 1
    out = [(tuple(perm), sign)]
    counters = [0] * n
    i = 0
    while i < n:
        if counters[i] < i:
            if i % 2 == 0:
                perm[0], perm[i] = perm[i], perm[0]
            else:
                perm[counters[i]], perm[i] = perm[i], perm[counters[i]]
            sign = -sign
            out.append((tuple(perm), sign))
            counters[i] += 1
            i = 0
        else:
            counters[i] = 0
            i += 1
    return out


def sdet_double_sum(A: Matrix):
    """Symmetric determinant straight from the double permutation sum."""
    perms = heap_signed_permutations(A.n)
    total = A.ring.zero
    for alpha, sign_a in perms:
        for beta, sign_b in perms:
            prod = A.ring.one
            for t in range(A.n):
                prod = prod * A.rows[alpha[t]][beta[t]]
            total = total + prod if sign_a == sign_b else total - prod
    return total


def preadjoint_double_sum(A: Matrix) -> Matrix:
    """Preadjoint straight from its definition: entry (r, s) sums the pairs
    (alpha, beta) with alpha(s) = s and beta(s) = r, taking the ordered
    product over every position except s."""
    n = A.n
    perms = heap_signed_permutations(n)
    out = []
    for r in range(n):
        row = []
        for s in range(n):
            total = A.ring.zero
            for alpha, sign_a in perms:
                if alpha[s] != s:
                    continue
                for beta, sign_b in perms:
                    if beta[s] != r:
                        continue
                    prod = A.ring.one
                    for t in range(n):
                        if t != s:
                            prod = prod * A.rows[alpha[t]][beta[t]]
                    total = total + prod if sign_a == sign_b else total - prod
            row.append(total)
        out.append(row)
    return Matrix(A.ring, out)


def free_product(x, y) -> dict[tuple[int, ...], int]:
    """Terms of x*y in the free algebra, from the public ``terms`` only: each
    pair of words concatenates."""
    out: dict[tuple[int, ...], int] = {}
    for left, c1 in x.terms.items():
        for right, c2 in y.terms.items():
            word = left + right
            out[word] = out.get(word, 0) + c1 * c2
    return {word: coeff for word, coeff in out.items() if coeff}


def deglex_text(names, terms: dict[tuple[int, ...], int]) -> str:
    """Canonical text of free-algebra terms: words by (length, word), the
    first sign only when negative, and no coefficient of magnitude 1."""
    out = ""
    for word in sorted(terms, key=lambda w: (len(w), w)):
        coeff = terms[word]
        body = "*".join(names[i] for i in word)
        if not body:
            body = str(abs(coeff))
        elif abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        if out:
            out += (" - " if coeff < 0 else " + ") + body
        else:
            out = ("-" if coeff < 0 else "") + body
    return out or "0"


def grassmann_product(x, y) -> dict[tuple[int, ...], int]:
    """Terms of x*y in the exterior algebra, from the public ``terms`` only.

    Each pair of basis monomials with no common generator multiplies to the
    sorted union, signed by the parity of the inversions of the two index
    tuples written one after the other.
    """
    out: dict[tuple[int, ...], int] = {}
    for left, c1 in x.terms.items():
        for right, c2 in y.terms.items():
            if set(left) & set(right):
                continue
            word = left + right
            inversions = sum(
                1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
            )
            key = tuple(sorted(word))
            out[key] = out.get(key, 0) + (-1) ** inversions * c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


def central_poly_product_slices(x: CentralPoly, y: CentralPoly) -> CentralPoly:
    """x * y in R[z] slice by slice: the degree-d coefficient sums the base
    products of x's degree-i and y's degree-(d - i) coefficients, x's on
    the left."""
    ring = x.ring
    if x.is_zero() or y.is_zero():
        return ring.zero
    out = [ring.base.zero] * (x.degree() + y.degree() + 1)
    for i, a in enumerate(x.coefficients):
        for j, b in enumerate(y.coefficients):
            out[i + j] = out[i + j] + a * b
    return CentralPoly(ring, out)


def central_poly_sum(x: CentralPoly, y: CentralPoly) -> CentralPoly:
    """x + y in R[z] slice by slice, by the base ring's ``+``."""
    size = max(x.degree(), y.degree()) + 1
    return CentralPoly(x.ring, [x.coeff(d) + y.coeff(d) for d in range(size)])


def _lagrange_basis(points: list[int]) -> list[list[Fraction]]:
    """Coefficients, constant first, of the Lagrange basis polynomial of
    each point: 1 there and 0 at every other point."""
    basis = []
    for m, zm in enumerate(points):
        coeffs = [Fraction(1)]
        for zj in points[:m] + points[m + 1:]:
            # times (z - zj) / (zm - zj)
            coeffs = [
                (high - zj * low) / (zm - zj) for high, low in zip([0, *coeffs], [*coeffs, 0])
            ]
        basis.append(coeffs)
    return basis


def charpoly_by_interpolation(A: Matrix, side: str = "right", k: int = 1) -> CentralPoly:
    """p_{A,k} (right) or q_{A,k} (left) from n^k + 1 values over R.

    z is central, so setting z = z0 maps R[z] onto R and the k-th
    determinant of zI - A onto that of z0 I - A.  The polynomial has degree
    n^k, so its values at z0 = 0..n^k fix it; each key's coefficients are
    interpolated with exact fractions and must come out integers.  The
    entries of A are sparse ring elements, read through their public
    ``terms``, or integers, read as the terms {(): value}.
    """
    ring = A.ring
    integers = isinstance(ring, IntegerRing)
    determinant = right_determinant if side == "right" else left_determinant
    points = list(range(A.n**k + 1))
    results = [determinant(Matrix.scalar(ring, A.n, z0) - A, k) for z0 in points]
    values = [{(): value} if integers else value.terms for value in results]
    basis = _lagrange_basis(points)
    coeffs = []
    for d in range(len(points)):
        terms = {}
        for key in set().union(*values):
            c = sum(value.get(key, 0) * L[d] for value, L in zip(values, basis))
            assert c.denominator == 1, f"coefficient {c} of z^{d} is not an integer"
            terms[key] = int(c)
        coeffs.append(terms.get((), 0) if integers else ring.element_type(ring, terms))
    return CentralPoly(PolynomialRing(ring), coeffs)


def power_sums(A: Matrix, right, left) -> tuple[Matrix, Matrix]:
    """sum_i A^i right[i] and sum_i left[i] A^i, the coefficient lists
    running from degree 0, with an identity, two zero accumulators and a
    running power of A."""
    right_sum = left_sum = Matrix.zeros(A.ring, A.n)
    power = Matrix.identity(A.ring, A.n)
    for i, (c, d) in enumerate(zip(right, left, strict=True)):
        if i:
            power = power * A
        right_sum = right_sum + power * c
        left_sum = left_sum + d * power
    return right_sum, left_sum


def reverse(x):
    """rho(x): the reversal anti-automorphism of x's ring."""
    if isinstance(x, int):
        return x
    if isinstance(x, CentralPoly):
        return CentralPoly(x.ring, [reverse(c) for c in x.coefficients])
    if isinstance(x, FreePoly):
        return FreePoly(x.ring, {word[::-1]: c for word, c in x.terms.items()})
    if isinstance(x, GrassmannElem):
        # reversing k anticommuting generators takes k(k-1)/2 swaps
        return GrassmannElem(
            x.ring, {s: -c if len(s) % 4 in (2, 3) else c for s, c in x.terms.items()}
        )
    raise TypeError(f"no reversal for {type(x).__name__}")


def words_up_to(num_generators: int, max_degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        out.extend(product(range(num_generators), repeat=degree))
    return out


def integer_span_contains(basis_rows: list[list[int]], target: list[int]) -> bool:
    """Membership of target in the Z-span of basis_rows, by integer elimination."""
    rows = [row[:] for row in basis_rows if any(row)]
    remaining = target[:]
    cols = len(target)
    rank = 0
    for col in range(cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            while rows[i][col]:
                q = rows[rank][col] // rows[i][col]
                rows[rank] = [a - q * b for a, b in zip(rows[rank], rows[i])]
                rows[rank], rows[i] = rows[i], rows[rank]
        rank += 1
        if rank == len(rows):
            break
    for row in rows[:rank]:
        lead = next(c for c, a in enumerate(row) if a)
        if remaining[lead] % row[lead] == 0:
            q = remaining[lead] // row[lead]
            remaining = [a - q * b for a, b in zip(remaining, row)]
    return all(a == 0 for a in remaining)


def rank_mod_p(rows: list[list[int]], p: int = 2**61 - 1) -> int:
    """Rank of an integer matrix over the field Z/p, by Gaussian elimination.

    It is at most the rank over the rationals, and equal to it unless p
    divides every nonzero minor of the rational rank's size.
    """
    rows = [[a % p for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        inverse = pow(lead[col], -1, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] * inverse % p
            if factor:
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], lead)]
        rank += 1
    return rank


def cyclic_span_oracle(p: FreePoly) -> bool:
    """[R,R] membership by the cyclic-word criterion on the public tuple words:
    the coefficients sum to zero over each class of rotations, the empty word
    being a class of its own."""
    sums: dict[tuple[int, ...], int] = {}
    for word, coeff in p.terms.items():
        rep = min((word[i:] + word[:i] for i in range(len(word))), default=())
        sums[rep] = sums.get(rep, 0) + coeff
    return all(total == 0 for total in sums.values())


def commutator_span_oracle(p: FreePoly, max_degree: int | None = None) -> bool:
    """Brute-force [R,R] membership over monomial commutators up to a degree cap.

    The commutator subgroup is graded by word length, so commutators of
    total degree up to deg(p) span every relevant component exactly.
    """
    if p.is_zero():
        return True
    if max_degree is None:
        max_degree = p.degree()
    num_generators = len(p.ring.names)
    words = words_up_to(num_generators, max_degree)
    index = {w: i for i, w in enumerate(words)}
    monomials = [w for w in words if w]

    basis = []
    seen = set()
    for u in monomials:
        for v in monomials:
            if len(u) + len(v) > max_degree:
                continue
            uv, vu = u + v, v + u
            if uv == vu:
                continue
            key = (min(uv, vu), max(uv, vu))
            if key in seen:
                continue
            seen.add(key)
            row = [0] * len(words)
            row[index[uv]] += 1
            row[index[vu]] -= 1
            basis.append(row)

    target = [0] * len(words)
    for word, coeff in p.terms.items():
        target[index[word]] = coeff
    return integer_span_contains(basis, target)


def _int_matrix(ring: IntMatrixRing, entry) -> MatInt:
    """The element of ring whose (i, j) entry is entry(i, j)."""
    return MatInt(ring, tuple(tuple(entry(i, j) for j in range(ring.m)) for i in range(ring.m)))


class IntMatrixRing(Ring):
    """M_m(Z); an expression names the matrix units e11..emm."""

    def __init__(self, m: int):
        self.m = m

    @property
    def zero(self) -> MatInt:
        return self.from_int(0)

    @property
    def one(self) -> MatInt:
        return self.from_int(1)

    def from_int(self, k: int) -> MatInt:
        return _int_matrix(self, lambda i, j: k if i == j else 0)

    def _identity(self) -> tuple:
        return (self.m,)

    def random_element(self, rng: random.Random) -> MatInt:
        """A seeded element with entries in -3..3."""
        return _int_matrix(self, lambda i, j: rng.randint(-3, 3))

    def named_gens(self) -> dict:
        m = self.m
        return {
            f"e{r + 1}{c + 1}": _int_matrix(self, lambda i, j: int(i == r and j == c))
            for r in range(m) for c in range(m)
        }


def random_matrix(ring: IntMatrixRing, rng: random.Random, n: int) -> Matrix:
    """An n x n matrix of seeded ``ring.random_element`` draws."""
    return Matrix(ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(n)])


class MatInt(RingElement):
    """An element of an ``IntMatrixRing``: a tuple of integer rows."""

    _MISMATCH = "integer matrices of different sizes"

    def __init__(self, ring: IntMatrixRing, rows: tuple):
        self.ring = ring
        self.rows = rows

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _int_matrix(self.ring, lambda i, j: self.rows[i][j] + other.rows[i][j])

    def __neg__(self) -> MatInt:
        return _int_matrix(self.ring, lambda i, j: -self.rows[i][j])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = self.ring.m
        return _int_matrix(
            self.ring, lambda i, j: sum(self.rows[i][t] * other.rows[t][j] for t in range(m))
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return isinstance(other, MatInt) and self.ring == other.ring and self.rows == other.rows

    def __hash__(self) -> int:
        # equal matrices share their corner, and k I equals k
        return hash(self.rows[0][0])

    def __str__(self) -> str:
        return str([list(row) for row in self.rows])


_AXIOMS = (
    "add_associative",
    "add_commutative",
    "mul_associative",
    "left_distributive",
    "right_distributive",
    "zero_is_additive_identity",
    "one_is_multiplicative_identity",
    "additive_inverse",
)


class AxiomReport(Record):
    """Outcome of a seeded ring-axiom spot check, one verdict per axiom."""

    __slots__ = ("trials", "results", "failures")
    _defaults = {"results": dict, "failures": list}
    trials: int
    results: dict
    failures: list

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def __str__(self) -> str:
        lines = [f"{name}: {'pass' if good else 'FAIL'}" for name, good in self.results.items()]
        return "\n".join(lines) if lines else "(no trials)"


def ring_axiom_check(ring: Ring, samples, trials: int = 100, seed: int = 0) -> AxiomReport:
    """Spot-check the ring axioms on seeded random triples drawn from samples.

    Returns a pass/fail verdict per axiom (associativity, commutativity of
    addition, distributivity, identities, additive inverses).  Deterministic
    for a given seed; zero trials yields an empty report.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("samples must be nonempty")
    if trials <= 0:
        return AxiomReport(trials=trials)
    rng = random.Random(seed)
    zero, one = ring.zero, ring.one
    results = {name: True for name in _AXIOMS}
    failures = []
    for _ in range(trials):
        x = rng.choice(samples)
        y = rng.choice(samples)
        z = rng.choice(samples)
        checks = {
            "add_associative": (x + y) + z == x + (y + z),
            "add_commutative": x + y == y + x,
            "mul_associative": (x * y) * z == x * (y * z),
            "left_distributive": x * (y + z) == x * y + x * z,
            "right_distributive": (x + y) * z == x * z + y * z,
            "zero_is_additive_identity": x + zero == x,
            "one_is_multiplicative_identity": one * x == x and x * one == x,
            "additive_inverse": x + (-x) == zero,
        }
        for name, good in checks.items():
            if not good:
                if results[name]:
                    failures.append((name, x, y, z))
                results[name] = False
    return AxiomReport(trials, results, failures)
