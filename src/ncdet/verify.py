"""Mechanical verification suites, one per theorem of the determinant theory.

Every suite runs a family of exact symbolic identity checks at desk scale
and reports one pass/fail result per check.  "Generic" matrices have
distinct free noncommuting generators as entries, so an identity verified
there holds under every specialization; randomized checks draw all their
randomness from one seeded generator, making reports reproducible.

A suite is a module function named ``_suite_<name>``; ``SUITES`` registers
each under ``<name>`` in the order of definition.  ``VerifyOptions`` holds
the options and their ranges; a suite reads them through the run's
``_OptionReader``, and ``_trials`` is the one loop over seeded draws.

The twelve suites that state identities of any ring -- thm2_1, thm2_2,
thm2_6, thm3_1, cor3_2, prop3_3, cor3_4, prop4_1, thm4_2, rem4_3's
squares, thm4_4 and cor4_5 -- take their matrices from a ``matrix``
parameter: ``matrix(n)`` returns ``(ring, A)`` as ``generic_matrix``, its
default, does.  ``run_verify`` runs them on the generic matrix, where a
pass proves the identity in every ring; the same checks run unchanged on
any other ring's matrices, except thm2_2's and thm2_6's [R,R] lines,
which run only over the free algebra, the one ring with a span test.
Only a free-algebra witness stops thm2_6 past n = 5, as ``charpoly`` says.
The rest keep their own inputs: thm2_3, thm2_4, thm2_5 and thm2_7 state
facts of the exterior algebra and draw its matrices from the seed;
commutative_collapse needs a commutative ring; and rem4_3's cube line
stays on the generic 2x2, as tr((A^T)^3) = tr(A^3) in commutative rings.

thm2_6's identity and zero-trace lines hold by the witness's own
construction, lambdas[i] I + C_i = n M_i with sum_i A^i M_i telescoping,
so they check its arithmetic; the theorem is carried by its lines that
the lambdas are p_A,1's coefficients, led by n!, and over the free
algebra that the defects' entries lie in [R,R].  cor3_2 compares q_A,1,
which the sweep's halves compute, with p_A,1 by its definition tr(X X*)
for X = zI - A.

This module is where every verdict is decided: the computing modules
return data, and the suites, ``scalar_cayley_hamilton_check`` (Thm 2.7)
and ``lie_nilpotency_check`` (the exterior algebra's index 2) check it.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from .charpoly import (
    CentralPoly,
    PolynomialRing,
    _check_witness_size,
    cayley_hamilton_witness,
    char_matrix,
    characteristic_polynomial,
    newton_sdet_2,
    newton_sdet_3,
    standard_polynomial_4,
)
from .determinants import (
    commutator_defect,
    conjugate,
    left_determinant,
    preadjoint,
    preadjoint_via_minors,
    right_determinant,
    sequence_product,
    symmetric_determinant,
    trace_of_product,
)
from .freealg import FreeAlgebra, in_commutator_span
from .grassmann import MAX_RANK, GrassmannAlgebra, graded_parts
from .matrices import (
    DIMENSION_CAP,
    Matrix,
    commutative_adj,
    commutative_det,
    generic_matrix,
    is_supermatrix,
)
from .rings import IntegerRing, Record, TermLimitError, commutator


class CheckResult(Record):
    __slots__ = ("name", "passed", "elapsed_ms", "detail")
    _defaults = {"detail": ""}
    name: str
    passed: bool
    elapsed_ms: float
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.name} ({self.elapsed_ms:.0f} ms){suffix}"


class VerifyReport(Record):
    __slots__ = ("suite", "checks")
    _defaults = {"checks": list}
    suite: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def elapsed_ms(self) -> float:
        return sum(c.elapsed_ms for c in self.checks)

    def __str__(self) -> str:
        lines = [str(c) for c in self.checks]
        verdict = "all checks passed" if self.ok else "FAILURES PRESENT"
        lines.append(f"suite {self.suite}: {verdict} ({self.elapsed_ms:.0f} ms)")
        return "\n".join(lines)


class VerifyOptions(Record):
    __slots__ = ("n", "k", "t", "rank", "trials", "seed")
    _defaults = {"n": None, "k": None, "t": None, "rank": None, "trials": None, "seed": 42}
    n: int | None
    k: int | None
    t: int | None
    rank: int | None
    trials: int | None
    seed: int

    def _validate(self):
        # every option is an int (not a bool); only the seed must be given
        for name, value in zip(self.__slots__, self._values()):
            if (value is not None or name == "seed") and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n is not None and not 1 <= self.n <= DIMENSION_CAP:
            raise ValueError(f"n={self.n} is outside the supported range 1..{DIMENSION_CAP}")
        for name in ("k", "t", "trials"):
            if (value := getattr(self, name)) is not None and value < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.rank is not None and not 0 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank={self.rank} is outside the supported range 0..{MAX_RANK}")


class _OptionReader(Record):
    """The options of one run as its suites read them: every read records
    the option's name, so a run can refuse an option its suite never reads."""

    __slots__ = ("options", "read")
    _defaults = {"read": set}
    options: VerifyOptions
    read: set[str]

    def get(self, name: str, default=None):
        """The option's value, or ``default`` when it was not given."""
        self.read.add(name)
        value = getattr(self.options, name)
        return default if value is None else value

    def each(self, name: str, defaults: tuple) -> tuple:
        """The option's value as a one-tuple, or ``defaults`` when it was not given."""
        value = self.get(name)
        return defaults if value is None else (value,)


def _check(name: str, fn) -> CheckResult:
    """Run one check and time it.  A suite yields ``(name, fn)`` pairs and
    each check runs as soon as it is yielded, before its suite resumes, so
    a check may read the suite's loop variables as they stand.  A check
    over the term budget ends the run; any other error fails the check."""
    start = time.perf_counter()
    try:
        outcome = fn()
        passed, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
    except TermLimitError:
        raise
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"error: {exc}"
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(name=name, passed=bool(passed), elapsed_ms=elapsed, detail=detail)


def _fixture(fn, *args):
    """fn(*args), computed by the first check that calls for it and kept, error
    included, so its time lands in that check and no check recomputes it."""
    outcome = []

    def value():
        if not outcome:
            try:
                outcome.append((fn(*args), None))
            except Exception as exc:
                outcome.append((None, exc))
        result, error = outcome[0]
        if error is not None:
            raise error
        return result

    return value


# ---------------------------------------------------------------- fixtures


def random_integer_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix(IntegerRing(), [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def random_grassmann_matrix(algebra: GrassmannAlgebra, rng: random.Random, n: int) -> Matrix:
    """Entries mix a constant with sparse wedge terms, so products of many
    entries stay nonzero and the scalar-matrix checks are not vacuous."""

    def entry():
        return algebra.from_int(rng.randint(-3, 3)) + algebra.random_element(rng, max_terms=2)

    return Matrix(algebra, [[entry() for _ in range(n)] for _ in range(n)])


def random_supermatrix(algebra: GrassmannAlgebra, rng: random.Random, n: int, t: int) -> Matrix:
    """Random (n, t) supermatrix: even diagonal blocks, odd off-diagonal blocks.

    Diagonal-block entries carry a constant part (constants are even), which
    keeps determinants and characteristic polynomials away from zero.
    """

    def entry(parity: int):
        x = algebra.random_element(rng, max_terms=2, parity=parity)
        return x if parity else x + algebra.from_int(rng.randint(-3, 3))

    return Matrix(algebra, [[entry(int((i < t) != (j < t))) for j in range(n)] for i in range(n)])


def unimodular_conjugators(n: int) -> tuple[Matrix, ...]:
    """Fixed unimodular integer matrices: two transvections and a permutation.

    A transvection needs two distinct indices, so at n = 1 only the
    permutation (the 1x1 identity) remains.
    """
    ring = IntegerRing()

    def transvection(p, q):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[p][q] = 1
        return Matrix(ring, rows)

    shift = Matrix(ring, [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
    if n == 1:
        return (shift,)
    return (transvection(0, 1), transvection(n - 1, 0), shift)


def scalar_matrix_equal(M: Matrix, value) -> bool:
    """M equals value * I."""
    return M == Matrix.scalar(M.ring, M.n, value)


def _even(x) -> bool:
    return graded_parts(x)[1].is_zero()


def _trials(count: int, draw, test):
    """A check that runs ``test(draw())`` ``count`` times.  ``test`` returns
    a failure detail or None; the check fails with the first detail and
    otherwise passes with "<count> trials"."""

    def check():
        for _ in range(count):
            failure = test(draw())
            if failure is not None:
                return False, failure
        return True, f"{count} trials"

    return check


# ---------------------------------------------------------- theorem checks


def _vanishing(A: Matrix, right, left) -> tuple[bool, bool]:
    """Whether sum_i A^i right[i] and sum_i left[i] A^i are zero, forming
    each power of A once.  Both coefficient lists run from degree 0 and
    have the same length."""
    right_sum = left_sum = Matrix.zeros(A.ring, A.n)
    power = Matrix.identity(A.ring, A.n)
    for i, (c, d) in enumerate(zip(right, left, strict=True)):
        if i:
            power = power * A
        right_sum = right_sum + power * c
        left_sum = left_sum + d * power
    return right_sum.is_zero(), left_sum.is_zero()


def _witness_identities(A: Matrix, witness) -> tuple[bool, bool]:
    scalars = [Matrix.scalar(A.ring, A.n, lam) for lam in witness.lambdas]
    return _vanishing(
        A,
        [lam + C for lam, C in zip(scalars, witness.right_defects)],
        [lam + D for lam, D in zip(scalars, witness.left_defects)],
    )


def scalar_cayley_hamilton_check(A: Matrix, k: int = 2) -> bool:
    """Scalar-coefficient Cayley--Hamilton over a Lie-nilpotent ring of index 2.

    Requires exterior-algebra entries.  True iff p_{A,k} leads with
    n ((n-1)!)^(1 + n + ... + n^(k-1)) and A is a root of p_{A,k} with its
    coefficients on the right of each power and of q_{A,k} with them on
    the left.
    """
    if not isinstance(A.ring, GrassmannAlgebra):
        raise ValueError("scalar CH check runs over the exterior algebra")
    n, degree = A.n, A.n**k
    p = characteristic_polynomial(A, "right", k)
    q = characteristic_polynomial(A, "left", k)
    leading = n * math.factorial(n - 1) ** sum(n**i for i in range(k))
    if p.coeff(degree) != A.ring.from_int(leading):
        return False
    scalars = [
        [Matrix.scalar(A.ring, n, poly.coeff(i)) for i in range(degree + 1)] for poly in (p, q)
    ]
    return all(_vanishing(A, *scalars))


def lie_nilpotency_check(rank: int, index: int, trials: int = 20, seed: int = 0) -> bool:
    """Test the left-normed commutator identity of length index+1 on random elements.

    Evaluates [[...[[x1,x2],x3],...],x_{index+1}] over the rank-m exterior
    algebra on seeded random tuples (plus the generators themselves, so a
    failure at index 1 is always witnessed); True iff every evaluation is zero.
    """
    if index < 1:
        raise ValueError("index must be at least 1")
    algebra = GrassmannAlgebra(rank)
    rng = random.Random(seed)
    pools = []
    if rank:
        gens = algebra.gens()
        pools.append(tuple(gens[i % rank] for i in range(index + 1)))
    for _ in range(trials):
        pools.append(tuple(algebra.random_element(rng) for _ in range(index + 1)))
    for elements in pools:
        nested = elements[0]
        for x in elements[1:]:
            nested = commutator(nested, x)
        if not nested.is_zero():
            return False
    return True


# ------------------------------------------------------------------ suites
#
# A suite yields (name, check) pairs; see ``_check``.  It reads all its options
# before its first yield, and ``run_verify`` advances every suite of a run to
# that first yield before any check runs, so a refusal comes before any work.


def _suite_thm2_1(opt: _OptionReader, matrix=generic_matrix):
    for n in opt.each("n", (2, 3)):
        _, A = matrix(n)
        pre = _fixture(preadjoint, A)
        rdet = {k: _fixture(right_determinant, A, k) for k in opt.each("k", (1, 2))}
        ldet = {k: _fixture(left_determinant, A, k) for k in opt.each("k", (1, 2))}
        for idx, T in enumerate(unimodular_conjugators(n), start=1):
            conj = _fixture(conjugate, A, T)
            at = f"thm2_1 n={n} T{idx}:"
            yield f"{at} trace invariant", lambda: conj().trace() == A.trace()
            yield f"{at} (T^-1 A T)* = T^-1 A* T", lambda: conjugate(pre(), T) == preadjoint(conj())
            for k in rdet:
                yield f"{at} rdet_{k} invariant", lambda: rdet[k]() == right_determinant(conj(), k)
                yield f"{at} ldet_{k} invariant", lambda: ldet[k]() == left_determinant(conj(), k)


def _suite_thm2_2(opt: _OptionReader, matrix=generic_matrix):
    for n in opt.each("n", (2, 3)):
        ring, A = matrix(n)
        sdet = _fixture(symmetric_determinant, A)
        for side in ("right", "left"):
            result = _fixture(commutator_defect, A, side)
            at = f"thm2_2 n={n} {side}:"
            yield f"{at} scalar part is sdet", lambda: result().scalar == sdet()
            yield f"{at} defect has zero trace", lambda: result().defect.trace() == A.ring.zero
            if isinstance(ring, FreeAlgebra):
                yield f"{at} defect entries lie in [R,R]", lambda: all(
                    in_commutator_span(e) for row in result().defect.rows for e in row
                )


def _suite_thm2_3(opt: _OptionReader):
    algebra = GrassmannAlgebra(opt.get("rank", 6))
    rng = random.Random(opt.get("seed"))
    for n in opt.each("n", (2, 3)):
        def test(A):
            right = sequence_product(A, "right", 2)
            if not scalar_matrix_equal(right * n, right.trace()):
                return "n A P1 P2 is not rdet_2(A) I"
            left = sequence_product(A, "left", 2)
            if not scalar_matrix_equal(left * n, left.trace()):
                return "n Q2 Q1 A is not ldet_2(A) I"

        yield f"thm2_3 n={n} rank={algebra.rank}: k=2 products are scalar", _trials(
            opt.get("trials", 20), lambda: random_grassmann_matrix(algebra, rng, n), test
        )


def _supermatrix_trials(opt: _OptionReader) -> list:
    """The (n, t) supermatrix shapes, each with its share of the trials (>= 1)."""
    shapes = [
        (n, t) for n in opt.each("n", (2, 3)) for t in opt.each("t", range(1, n)) if t < n
    ]
    if not shapes:
        raise ValueError("no valid (n, t) supermatrix shapes for the requested sizes")
    budget = opt.get("trials", 20)
    per = math.ceil(budget / len(shapes))
    return [(shape, max(1, min(per, budget - i * per))) for i, shape in enumerate(shapes)]


def _suite_thm2_4(opt: _OptionReader):
    algebra = GrassmannAlgebra(opt.get("rank", 6))
    rng = random.Random(opt.get("seed"))
    ks = opt.each("k", (1, 2))
    for (n, t), count in _supermatrix_trials(opt):
        def test(A):
            if not is_supermatrix(A, t):
                return "fixture is not a supermatrix"
            if not is_supermatrix(preadjoint(A), t):
                return "preadjoint left the supermatrix ring"
            for k in ks:
                for side, determinant in (("r", right_determinant), ("l", left_determinant)):
                    if not _even(determinant(A, k)):
                        return f"{side}det_{k} has an odd part"

        yield f"thm2_4 n={n} t={t}: A* super, rdet/ldet even", _trials(
            count, lambda: random_supermatrix(algebra, rng, n, t), test
        )


def _suite_thm2_5(opt: _OptionReader):
    algebra = GrassmannAlgebra(opt.get("rank", 6))
    rng = random.Random(opt.get("seed"))
    ks = opt.each("k", (1, 2))
    for (n, t), count in _supermatrix_trials(opt):
        def test(A):
            for k in ks:
                for side in ("right", "left"):
                    poly = characteristic_polynomial(A, side, k)
                    if not all(_even(c) for c in poly.coefficients):
                        return f"{side} charpoly k={k} has odd coefficients"

        yield f"thm2_5 n={n} t={t}: charpoly coefficients even", _trials(
            count, lambda: random_supermatrix(algebra, rng, n, t), test
        )


def _suite_thm2_6(opt: _OptionReader, matrix=generic_matrix):
    for n in opt.each("n", (2, 3)):
        ring, A = matrix(n)
        _check_witness_size(A)
        witness = _fixture(cayley_hamilton_witness, A)
        identities = _fixture(lambda: _witness_identities(A, witness()))
        yield f"thm2_6 n={n}: right CH identity vanishes", lambda: identities()[0]
        yield f"thm2_6 n={n}: left CH identity vanishes", lambda: identities()[1]
        yield f"thm2_6 n={n}: leading coefficient is n!", lambda: (
            witness().lambdas[n] == A.ring.from_int(math.factorial(n))
        )
        yield f"thm2_6 n={n}: lambdas are the coefficients of p_A,1", lambda: (
            witness().lambdas == characteristic_polynomial(A, "right", 1).coefficients
        )
        defects = _fixture(lambda: (*witness().right_defects, *witness().left_defects))
        yield f"thm2_6 n={n}: defects have zero trace", lambda: all(
            D.trace() == A.ring.zero for D in defects()
        )
        if isinstance(ring, FreeAlgebra):
            yield f"thm2_6 n={n}: defect entries lie in [R,R]", lambda: all(
                in_commutator_span(e) for D in defects() for row in D.rows for e in row
            )


def _suite_thm2_7(opt: _OptionReader):
    k = opt.get("k", 2)
    if k < 2:
        raise ValueError("thm2_7 needs k >= 2, the exterior algebra's Lie-nilpotency index")
    algebra = GrassmannAlgebra(opt.get("rank", 4))
    rng = random.Random(opt.get("seed"))

    def test(A):
        if not scalar_cayley_hamilton_check(A, k=k):
            return "scalar CH identity failed"

    for n in opt.each("n", (2,)):
        yield f"thm2_7 n={n} rank={algebra.rank}: scalar CH identities", _trials(
            opt.get("trials", 20), lambda: random_grassmann_matrix(algebra, rng, n), test
        )


def _suite_thm3_1(opt: _OptionReader, matrix=generic_matrix):
    for n in opt.each("n", (2, 3, 4)):
        _, A = matrix(n)
        pre = _fixture(preadjoint, A)
        sdet = _fixture(symmetric_determinant, A)
        yield f"thm3_1 n={n}: tr(A A*) = sdet(A)", lambda: sdet() == trace_of_product(A, pre())
        yield f"thm3_1 n={n}: tr(A* A) = sdet(A)", lambda: sdet() == trace_of_product(pre(), A)


def _suite_cor3_2(opt: _OptionReader, matrix=generic_matrix):
    for n in opt.each("n", (2, 3)):
        _, A = matrix(n)
        X = _fixture(char_matrix, A)
        yield f"cor3_2 n={n}: p_A,1 = q_A,1", lambda: (
            trace_of_product(X(), preadjoint(X())) == characteristic_polynomial(A, "left", 1)
        )


def _suite_prop3_3(opt: _OptionReader, matrix=generic_matrix):
    _, A = matrix(2)
    a, b, c, d = *A.rows[0], *A.rows[1]

    def check():
        difference = right_determinant(A, 2) - left_determinant(A, 2)
        return difference == standard_polynomial_4(a, b, c, d), "24-term residual is exactly zero"

    yield "prop3_3: rdet_2 - ldet_2 = S4(entries)", check


def _suite_cor3_4(opt: _OptionReader, matrix=generic_matrix):
    _, A = matrix(2)
    a, b, c, d = *A.rows[0], *A.rows[1]

    def check():
        difference = characteristic_polynomial(A, "right", 2) - characteristic_polynomial(A, "left", 2)
        expected = CentralPoly(PolynomialRing(A.ring), [standard_polynomial_4(a, b, c, d)])
        return difference == expected, "z-degree >= 1 coefficients cancel"

    yield "cor3_4: p_A,2 - q_A,2 is the constant S4", check


def _suite_prop4_1(opt: _OptionReader, matrix=generic_matrix):
    _, A = matrix(2)
    a, b, c, d = *A.rows[0], *A.rows[1]
    yield "prop4_1: tr^2 - tr(A^2) = sdet (generic 2x2)", lambda: (
        newton_sdet_2(A) == symmetric_determinant(A)
    )
    yield "prop4_1: sdet(2x2) = ad + da - bc - cb", lambda: (
        symmetric_determinant(A) == a * d + d * a - b * c - c * b
    )


def _suite_thm4_2(opt: _OptionReader, matrix=generic_matrix):
    _, A = matrix(3)
    yield "thm4_2: six-term trace formula = sdet (generic 3x3)", lambda: (
        newton_sdet_3(A) == symmetric_determinant(A), "36-term residual is exactly zero"
    )


def _suite_rem4_3(opt: _OptionReader, matrix=generic_matrix):
    for n in opt.each("n", (2, 3, 4)):
        _, A = matrix(n)

        def squares():
            T = A.transpose()
            return (T * T).trace() == (A * A).trace()

        yield f"rem4_3 n={n}: tr((A^T)^2) = tr(A^2)", squares
    _, A = generic_matrix(2)

    def cubes():
        T = A.transpose()
        difference = (T * T * T).trace() - (A * A * A).trace()
        return not difference.is_zero(), f"tr((A^T)^3) - tr(A^3) = {difference}"

    yield "rem4_3: tr((A^T)^3) != tr(A^3) (generic 2x2)", cubes


def _closed_form_3(A: Matrix) -> list:
    """The coefficients of p_A,1 for a 3x3 matrix, constant term first:
    -sdet, 3(tr^2 - tr A^2), -6 tr, 6."""
    t = A.trace()
    t2 = (A * A).trace()
    return [-symmetric_determinant(A), (t * t - t2) * 3, t * (-6), A.ring.from_int(6)]


def _suite_thm4_4(opt: _OptionReader, matrix=generic_matrix):
    _, A = matrix(3)

    def check():
        expected = CentralPoly(PolynomialRing(A.ring), _closed_form_3(A))
        return characteristic_polynomial(A, "right", 1) == expected

    yield "thm4_4: p_A,1 = 6z^3 - 6tr z^2 + 3(tr^2 - tr A^2) z - sdet", check


def _suite_cor4_5(opt: _OptionReader, matrix=generic_matrix):
    _, A = matrix(3)
    witness = _fixture(cayley_hamilton_witness, A)
    yield "cor4_5: lambda coefficients match the closed form", lambda: (
        tuple(witness().lambdas) == tuple(_closed_form_3(A))
    )
    identities = _fixture(lambda: _witness_identities(A, witness()))
    yield "cor4_5: coefficient-on-the-right identity vanishes", lambda: identities()[0]
    yield "cor4_5: coefficient-on-the-left identity vanishes", lambda: identities()[1]


def _suite_commutative_collapse(opt: _OptionReader):
    rng = random.Random(opt.get("seed"))
    for n in opt.each("n", (2, 3, 4)):
        def test(A):
            det = commutative_det(A)
            if symmetric_determinant(A) != math.factorial(n) * det:
                return "sdet != n! det"
            adj = commutative_adj(A)
            if preadjoint(A) != adj * math.factorial(n - 1):
                return "A* != (n-1)! adj(A)"
            if preadjoint_via_minors(A) != adj * math.factorial(n - 1):
                return "minor-formula A* != (n-1)! adj(A)"
            if n <= 3 and right_determinant(A, 1) != math.factorial(n) * det:
                return "rdet_1 != n! det"
            if n == 2 and right_determinant(A, 2) != 2 * det * det:
                return "rdet_2 != 2 det^2"
            t, t2 = A.trace(), (A * A).trace()
            middle = (A * Matrix.scalar(A.ring, n, t) * A).trace()
            if not (t * t2 == middle == t2 * t):
                return "trace insertions disagree over a commutative ring"
            T = A.transpose()
            if (T * T * T).trace() != (A * A * A).trace():
                return "tr((A^T)^3) != tr(A^3) over a commutative ring"

        yield f"commutative_collapse n={n}", _trials(
            opt.get("trials", 20), lambda: random_integer_matrix(rng, n), test
        )


SUITES = {name[7:]: fn for name, fn in list(globals().items()) if name.startswith("_suite_")}


def run_verify(suite: str, **options) -> VerifyReport:
    """Run one named suite (or "all") with the given ``VerifyOptions`` fields
    and return its report.

    Options out of range, that a suite cannot run with or, for a single
    suite, that it never reads are input errors, raised before any check.
    """
    options = VerifyOptions(**options)
    if suite != "all" and suite not in SUITES:
        known = ", ".join((*SUITES, "all"))
        raise ValueError(f"unknown suite {suite!r}; expected one of: {known}")
    opt, started = _OptionReader(options), []
    for each in SUITES.values() if suite == "all" else (SUITES[suite],):
        pairs = each(opt)
        # at its first yield a suite has read every option it reads
        started.append(itertools.chain(list(itertools.islice(pairs, 1)), pairs))
    unread = [
        f"--{name}" for name, value in zip(options.__slots__, options._values())
        if name not in opt.read and value != options._defaults[name]
    ]
    if suite != "all" and unread:
        raise ValueError(f"suite {suite} does not read {', '.join(unread)}")
    checks = [_check(name, fn) for pairs in started for name, fn in pairs]
    return VerifyReport(suite=suite, checks=checks)
