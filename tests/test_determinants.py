import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ncdet import (
    FreeAlgebra,
    FreePoly,
    GrassmannAlgebra,
    IntegerRing,
    Matrix,
    TermLimitError,
    adjoint_sequence,
    characteristic_polynomial,
    commutative_adj,
    commutative_det,
    commutator_defect,
    conjugate,
    left_determinant,
    preadjoint,
    preadjoint_via_minors,
    right_determinant,
    sequence_product,
    signed_permutations,
    symmetric_determinant,
    trace_of_product,
)
from ncdet import determinants
from ncdet.charpoly import char_matrix
from ncdet.verify import (
    generic_matrix,
    random_grassmann_matrix,
    random_supermatrix,
)

from oracles import heap_signed_permutations, preadjoint_double_sum, rank_mod_p, sdet_double_sum


@pytest.fixture
def ints():
    return IntegerRing()


def random_int_matrix(rng, n, ring):
    return Matrix(ring, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def _square(entries, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


_seeds = st.integers(0, 2**32 - 1)
_free_words = st.lists(st.integers(0, 2), min_size=0, max_size=2).map(tuple)
_free_terms = st.dictionaries(_free_words, st.integers(-3, 3), max_size=3)


# -- permutation plumbing ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lexicographic_enumeration_matches_heap_oracle(n):
    lex = dict(signed_permutations(n))
    heap = dict(heap_signed_permutations(n))
    assert lex == heap
    assert len(lex) == math.factorial(n)


# -- symmetric determinant -----------------------------------------------------


def test_sdet_1x1_is_the_entry():
    algebra = FreeAlgebra(("a",))
    A = Matrix(algebra, [[algebra.gen("a")]])
    assert symmetric_determinant(A) == algebra.gen("a")


def test_sdet_generic_2x2():
    algebra, A = generic_matrix(2)
    a, b, c, d = algebra.gens()
    assert symmetric_determinant(A) == a * d + d * a - b * c - c * b


def test_sdet_generic_3x3_has_the_36_term_expansion():
    algebra, A = generic_matrix(3)
    g = dict(zip(algebra.names, algebra.gens()))

    def sym6(x, y, z):
        return (
            x * y * z + x * z * y + y * x * z + y * z * x + z * x * y + z * y * x
        )

    expected = (
        sym6(g["a"], g["e"], g["p"])
        + sym6(g["b"], g["f"], g["g"])
        + sym6(g["c"], g["d"], g["h"])
        - sym6(g["c"], g["e"], g["g"])
        - sym6(g["a"], g["f"], g["h"])
        - sym6(g["b"], g["d"], g["p"])
    )
    result = symmetric_determinant(A)
    assert len(result.terms) == 36
    assert result == expected


def test_sdet_integer_example_against_double_sum_oracle(ints):
    A = Matrix(ints, [[1, 2], [3, 4]])
    assert sdet_double_sum(A) == -4
    assert symmetric_determinant(A) == -4
    assert symmetric_determinant(A) == 2 * commutative_det(A)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sdet_equals_oracle_and_collapses_commutatively(n, ints):
    rng = random.Random(n)
    for _ in range(10):
        A = random_int_matrix(rng, n, ints)
        value = symmetric_determinant(A)
        assert value == sdet_double_sum(A)
        assert value == math.factorial(n) * commutative_det(A)


@settings(max_examples=25, deadline=None)
@given(_square(_free_terms, 4))
@example([[{(i % 3,): 1, (j % 3, i % 3): j - i} for j in range(4)] for i in range(4)])
def test_sdet_matches_double_sum_on_free_matrices(rows):
    algebra = FreeAlgebra(("a", "b", "c"))
    A = Matrix(algebra, [[FreePoly(algebra, terms) for terms in row] for row in rows])
    assert symmetric_determinant(A) == sdet_double_sum(A)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), _seeds)
@example(4, 0)
def test_sdet_matches_double_sum_on_grassmann_matrices(n, seed):
    # R[z] over the Grassmann algebra too, through A's characteristic matrix
    algebra = GrassmannAlgebra(6)
    rng = random.Random(seed)
    A = random_grassmann_matrix(algebra, rng, n)
    assert symmetric_determinant(A) == sdet_double_sum(A)
    assert symmetric_determinant(char_matrix(A)) == sdet_double_sum(char_matrix(A))
    if n > 1:
        S = random_supermatrix(algebra, rng, n, rng.randint(1, n - 1))
        assert symmetric_determinant(S) == sdet_double_sum(S)


def test_sdet_matches_double_sum_at_n5():
    # n = 5 is the first size whose sweep builds a state from sweep states
    rng = random.Random(5)
    free = FreeAlgebra(("a", "b"))

    def entry():
        return FreePoly(free, {(rng.randrange(2),): rng.choice((-2, -1, 1, 2)), (): rng.randint(-1, 1)})

    F = Matrix(free, [[entry() for _ in range(5)] for _ in range(5)])
    exterior = GrassmannAlgebra(6)
    G = random_grassmann_matrix(exterior, rng, 5)
    S = random_supermatrix(exterior, rng, 5, rng.randint(1, 4))
    for A in (F, G, S):
        assert symmetric_determinant(A) == sdet_double_sum(A)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_oracles_catch_a_corrupted_minor_step(n, monkeypatch):
    # the states of the sweep's top level are the entries of A*: the
    # preadjoint reads them, and sdet reads them at n = 3, and nothing
    # else in the package derives their signs; flipping the first or the
    # last term of any one state must set those apart from the double-sum
    # oracles; at every other n sdet reads the halves instead
    _, A = generic_matrix(n)
    sdet, star = sdet_double_sum(A), preadjoint_double_sum(A)
    drops, steps, halves = determinants._level(n, n - 1)
    assert len(steps) == n * n
    for i, terms in enumerate(steps):
        for j in {0, len(terms) - 1}:
            pred, cell, negative = terms[j]
            flipped = list(steps)
            flipped[i] = terms[:j] + ((pred, cell, not negative),) + terms[j + 1 :]
            monkeypatch.setitem(determinants._levels, (n, n - 1), (drops, tuple(flipped), halves))
            assert (symmetric_determinant(A) != sdet) == (n == 3)
            assert preadjoint(A) != star


def _flipped_halves(monkeypatch, A):
    # sdet's last C(n,k)^2 products are its pairs of halves, the terms of
    # level k's halves: sdet with the sign of one of those terms flipped,
    # each in turn
    n, k = A.n, (A.n + 1) // 2
    drops, steps, halves = determinants._level(n, k)
    assert len(halves) == math.comb(n, k) ** 2
    rng = random.Random(n)
    counted = Matrix(IntegerRing(), [[CountingInt(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)])
    for i, (x, y, negative) in enumerate(halves):
        flipped = halves[:i] + ((x, y, not negative),) + halves[i + 1 :]
        monkeypatch.setitem(determinants._levels, (n, k), (drops, steps, flipped))
        if i == 0:
            monkeypatch.setattr(CountingInt, "products", 0)
            symmetric_determinant(counted)
            assert CountingInt.products == sdet_products(n)  # the sweep's, then one per pair
        yield symmetric_determinant(A)


def test_the_double_sum_catches_a_flipped_half(monkeypatch):
    _, A = generic_matrix(4)
    sdet = sdet_double_sum(A)
    assert symmetric_determinant(A) == sdet
    flipped = list(_flipped_halves(monkeypatch, A))
    assert len(flipped) == 36
    for value in flipped:
        assert value != sdet


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_commutative_collapse_catches_a_flipped_half(n, ints, monkeypatch):
    # flipping the pair (R, C) moves sdet by 2 sdet(A[R, C]) sdet(A[R', C']),
    # so it shows only where both minors are nonsingular: entries up to
    # 10^6 make a singular minor unlikely, and these seeds draw none
    rng = random.Random(n)
    A = Matrix(ints, [[rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(n)])
    expected = math.factorial(n) * commutative_det(A)
    assert symmetric_determinant(A) == expected
    flipped = list(_flipped_halves(monkeypatch, A))
    assert len(flipped) == math.comb(n, (n + 1) // 2) ** 2
    for value in flipped:
        assert value != expected


def test_sdet_builds_only_the_levels_it_reads(ints, monkeypatch):
    # the sweep's levels are built on first use: a first sdet at n = 6
    # builds levels 2 and 3 (level 1 is the entries), and a preadjoint
    # after it adds levels 4 and 5, once each
    monkeypatch.setattr(determinants, "_levels", {})
    A = random_int_matrix(random.Random(6), 6, ints)
    sdet = symmetric_determinant(A)
    assert sorted(determinants._levels) == [(6, 2), (6, 3)]
    star = preadjoint(A)
    built = dict(determinants._levels)
    assert sorted(built) == [(6, 2), (6, 3), (6, 4), (6, 5)]
    assert preadjoint(A) == star and symmetric_determinant(A) == sdet
    assert all(determinants._levels[key] is level for key, level in built.items())
    assert len(determinants._levels) == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_drops_factor_the_steps(n):
    # each t-set lists its t drops, n 2^(n-1) - n in all over levels
    # 1..n-1 (the full set's n are never needed); the flat steps derived
    # from them hold C(n,t)^2 t^2 terms per level, one per drop pair, and
    # the halves' terms one per state
    levels = [determinants._level(n, t) for t in range(1, n)]
    assert sum(len(d) for drops, _, _ in levels for d in drops) == n * 2 ** (n - 1) - n
    for t, (drops, steps, halves) in enumerate(levels, 1):
        assert len(drops) == math.comb(n, t)
        assert len(steps) == len(halves) == math.comb(n, t) ** 2
        assert sum(map(len, steps)) == math.comb(n, t) ** 2 * t**2


def sdet_products(n):
    # at n = 3 two products per term of a minor step: 2 n^2 (n-1)^2 =
    # 8 C(n,2)^2; at every other n from 2 one product per extension of a
    # sweep state over t = 2..k positions, k = ceil(n/2), then one per pair
    # of halves; none at n = 1
    if n == 1:
        return 0
    if n == 3:
        return 8 * math.comb(n, 2) ** 2
    k = (n + 1) // 2
    sweep = sum(math.comb(n, t) ** 2 * t**2 for t in range(2, k + 1))
    return sweep + math.comb(n, k) ** 2


def test_generic_sdet_sums_in_place(monkeypatch):
    # a running sum built by repeated FreePoly + copies the whole result on
    # every term; one ring.sum folds each product into one dict instead
    calls = dict.fromkeys(("__add__", "__radd__", "__sub__", "__rsub__", "__mul__"), 0)
    for name in calls:
        def counted(self, other, original=getattr(FreePoly, name), name=name):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(FreePoly, name, counted)
    # the products of the sweep and of the halves write into their sums;
    # at n = 3 the 72 = 8 C(3,2)^2 of tr(A* A) over the minor steps, two
    # per term, use *
    for n, products in [(3, 72), (4, 0)]:
        _, A = generic_matrix(n)
        calls.update(dict.fromkeys(calls, 0))
        value = symmetric_determinant(A)
        assert calls == {**dict.fromkeys(calls, 0), "__mul__": products}
        assert len(value.terms) == math.factorial(n) ** 2


def test_generic_sweep_and_matrix_products_write_into_their_sums(monkeypatch):
    # the sweep, sdet's halves, trace_of_product and Matrix.__mul__ write
    # every term pair straight into the running sum
    _, A = generic_matrix(4)
    calls = []
    original = FreePoly.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(FreePoly, "__mul__", counted)
    star = preadjoint(A)
    trace_of_product(A, star)
    A * star
    symmetric_determinant(A)
    assert calls == []


def _generic_3x3(term_limit):
    algebra, A = generic_matrix(3)
    algebra.term_limit = term_limit
    return A


def test_sdet_running_sum_over_the_term_budget_raises():
    # every product is one word, so only the 36-term running sum can trip
    assert len(symmetric_determinant(_generic_3x3(36)).terms) == 36
    with pytest.raises(TermLimitError, match="sum grew to 36 terms, over the budget of 35"):
        symmetric_determinant(_generic_3x3(35))


# -- preadjoint ----------------------------------------------------------------


def test_preadjoint_generic_2x2():
    algebra, A = generic_matrix(2)
    a, b, c, d = algebra.gens()
    assert preadjoint(A) == Matrix(algebra, [[d, -b], [-c, a]])
    assert preadjoint_via_minors(A) == Matrix(algebra, [[d, -b], [-c, a]])


def test_preadjoint_of_1x1_is_identity_by_convention():
    algebra = FreeAlgebra(("a",))
    A = Matrix(algebra, [[algebra.gen("a")]])
    assert preadjoint(A) == Matrix(algebra, [[algebra.one]])
    assert preadjoint_via_minors(A) == Matrix(algebra, [[algebra.one]])


def test_preadjoint_integer_3x3_is_two_adjugates(ints):
    A = Matrix(ints, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    expected = commutative_adj(A) * math.factorial(2)
    assert expected == Matrix(ints, [[4, 8, -6], [4, -22, 12], [-6, 12, -6]])
    assert preadjoint(A) == expected
    assert preadjoint_via_minors(A) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_preadjoint_routes_agree_generically(n):
    _, A = generic_matrix(n)
    assert preadjoint(A) == preadjoint_via_minors(A)


def test_preadjoint_routes_agree_on_random_4x4(ints):
    rng = random.Random(44)
    A = random_int_matrix(rng, 4, ints)
    assert preadjoint(A) == preadjoint_via_minors(A)
    assert preadjoint(A) == commutative_adj(A) * math.factorial(3)


def assert_preadjoint_matches_oracles(A):
    P = preadjoint(A)
    assert P == preadjoint_double_sum(A)
    if A.n > 1:
        assert P == preadjoint_via_minors(A)


@settings(max_examples=25, deadline=None)
@given(_square(st.integers(-9, 9), 5))
def test_preadjoint_matches_oracles_on_integers(rows):
    assert_preadjoint_matches_oracles(Matrix(IntegerRing(), rows))


@settings(max_examples=25, deadline=None)
@given(_square(_free_terms, 4))
def test_preadjoint_matches_oracles_on_free_matrices(rows):
    algebra = FreeAlgebra(("a", "b", "c"))
    assert_preadjoint_matches_oracles(
        Matrix(algebra, [[FreePoly(algebra, terms) for terms in row] for row in rows])
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), _seeds)
def test_preadjoint_matches_oracles_on_grassmann_matrices(n, seed):
    algebra = GrassmannAlgebra(6)
    rng = random.Random(seed)
    assert_preadjoint_matches_oracles(random_grassmann_matrix(algebra, rng, n))
    if n > 1:
        t = rng.randint(1, n - 1)
        assert_preadjoint_matches_oracles(random_supermatrix(algebra, rng, n, t))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), _seeds)
def test_preadjoint_matches_oracles_over_polynomial_entries(n, seed):
    A = random_grassmann_matrix(GrassmannAlgebra(6), random.Random(seed), n)
    assert_preadjoint_matches_oracles(char_matrix(A))


def test_preadjoint_integer_6x6_is_120_adjugates(ints):
    A = random_int_matrix(random.Random(66), 6, ints)
    assert preadjoint(A) == commutative_adj(A) * 120


class CountingInt(int):
    """An int whose ring operations stay CountingInt and count products."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return CountingInt(int(self) * int(other))

    def __add__(self, other):
        return CountingInt(int(self) + int(other))

    def __sub__(self, other):
        return CountingInt(int(self) - int(other))

    def __rsub__(self, other):
        return CountingInt(int(other) - int(self))

    def __neg__(self):
        return CountingInt(-int(self))

    __rmul__ = __mul__
    __radd__ = __add__


@pytest.mark.parametrize("n, products", [(2, 0), (3, 36), (4, 288), (5, 1700), (6, 9000)])
def test_preadjoint_never_multiplies_by_the_empty_product(n, products, ints, monkeypatch):
    # one product per extension of a state over k = 2..n-1 positions:
    # sum of C(n, k)^2 * k^2, as the single states need none
    monkeypatch.setattr(CountingInt, "products", 0)
    rng = random.Random(n)
    A = Matrix(ints, [[CountingInt(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)])
    P = preadjoint(A)
    assert CountingInt.products == products
    assert P == commutative_adj(A) * math.factorial(n - 1)


@pytest.mark.parametrize("n, products", [(1, 0), (2, 4), (3, 72), (4, 180), (5, 1400), (6, 4900)])
def test_sdet_builds_each_ordered_prefix_once(n, products, ints, monkeypatch):
    # the sweep merges the ordered prefixes by row and column set; the
    # prefix walk took the sum over t = 2..n of (n!/(n-t)!)^2 products,
    # 0, 4, 72, 1,296, 32,800, 1,181,700, and the enumeration (n!)^2 (n-1);
    # the minor-step finish took 432, 2,100 and 9,900 at n = 4, 5, 6
    monkeypatch.setattr(CountingInt, "products", 0)
    rng = random.Random(n)
    A = Matrix(ints, [[CountingInt(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)])
    value = symmetric_determinant(A)
    assert CountingInt.products == products == sdet_products(n)
    assert value == math.factorial(n) * commutative_det(A)


@pytest.mark.parametrize("n, sdet_count, star_count", [(4, 180, 288), (5, 1400, 1700), (6, 4900, 9000)])
def test_integer_sums_of_products_are_one_ring_call_per_level(n, sdet_count, star_count, ints, monkeypatch):
    # one IntegerRing.dots per sweep level, of one sum per state, plus one
    # dot for sdet's halves, and every product inside them: a product made
    # outside a ring sum fails here.  A dot runs dots inside, so only the
    # outermost call counts
    calls, active = [], []

    def counted(name, original, plans_of):
        def method(self, xs, ys, arg):
            if not active:
                calls.append((name, [len(terms) for terms in plans_of(arg)]))
            active.append(name)
            try:
                return original(self, xs, ys, arg)
            finally:
                active.pop()

        return method

    monkeypatch.setattr(IntegerRing, "dot", counted("dot", IntegerRing.dot, lambda terms: [terms]))
    monkeypatch.setattr(IntegerRing, "dots", counted("dots", IntegerRing.dots, lambda plans: plans))
    rng = random.Random(n)
    A = Matrix(ints, [[CountingInt(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)])
    for run, top, halves, products in [
        (symmetric_determinant, (n + 1) // 2, ["dot"], sdet_count),
        (preadjoint, n - 1, [], star_count),
    ]:
        calls.clear()
        monkeypatch.setattr(CountingInt, "products", 0)
        run(A)
        assert [name for name, _ in calls] == ["dots"] * (top - 1) + halves
        # one sum per state of each level, C(n, t)^2, then the halves' one
        assert [len(sums) for _, sums in calls] == [math.comb(n, t) ** 2 for t in range(2, top + 1)] + [1] * len(halves)
        assert sum(sum(sums) for _, sums in calls) == CountingInt.products == products


# -- adjoint sequences and k-th determinants ------------------------------------


@pytest.mark.parametrize(
    "n, k, products", [(3, 1, 45), (3, 2, 108), (4, 1, 180), (4, 2, 532), (5, 1, 1400), (6, 1, 4900)]
)
@pytest.mark.parametrize("side", ["right", "left"])
def test_kth_determinants_take_sdet_of_the_running_product(n, k, products, side, ints, monkeypatch):
    # rdet_k/ldet_k are the halves of the product before the k-th step:
    # at k = 2 A* (288) and A A* (64), then the halves' 180, 1,400 or
    # 4,900, where the k-th step's sweep and trace took 304, 656, 1,725 and
    # 9,036; at n = 3 the halves' 36 + 9 equal A* and its trace, after A*
    # (36) and A A* (27) at k = 2
    monkeypatch.setattr(CountingInt, "products", 0)
    rng = random.Random(n)
    A = Matrix(ints, [[CountingInt(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)])
    value = (right_determinant if side == "right" else left_determinant)(A, k)
    assert CountingInt.products == products
    det, f = commutative_det(A), math.factorial(n - 1)
    # A P_1 = (n-1)! det I, so rdet_2 = ldet_2 = n ((n-1)!)^(n+1) det^n
    assert value == (n * f * det if k == 1 else n * f ** (n + 1) * det**n)


def test_adjoint_sequence_base_case():
    _, A = generic_matrix(2)
    for side in ("right", "left"):
        assert adjoint_sequence(A, side, 1) == (preadjoint(A),)


def test_adjoint_sequence_unfolds_once():
    _, A = generic_matrix(2)
    P1 = preadjoint(A)
    assert adjoint_sequence(A, "right", 2) == (P1, preadjoint(A * P1))
    assert adjoint_sequence(A, "left", 2) == (P1, preadjoint(P1 * A))


def test_adjoint_sequence_validates_arguments():
    _, A = generic_matrix(2)
    with pytest.raises(ValueError):
        adjoint_sequence(A, "middle", 1)
    with pytest.raises(ValueError):
        adjoint_sequence(A, "right", 0)
    for takes_side in (
        lambda side: sequence_product(A, side, 1),
        lambda side: commutator_defect(A, side),
        lambda side: characteristic_polynomial(A, side),
    ):
        with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'middle'"):
            takes_side("middle")


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "walk, last_product",
    [
        (adjoint_sequence, 0),
        (sequence_product, 1),
        (lambda A, side, k: right_determinant(A, k) if side == "right" else left_determinant(A, k), 0),
    ],
    ids=["adjoint_sequence", "sequence_product", "det_k"],
)
def test_adjoint_walk_forms_only_the_products_it_needs(matrix_products, side, k, walk, last_product):
    # P_k needs the products up to A P_1 ... P_{k-1}; only sequence_product
    # forms the k-th, and rdet_k/ldet_k take its trace without it
    A = Matrix(IntegerRing(), [[2, -1, 3], [0, 4, 1], [-2, 5, 7]])
    walk(A, side, k)
    assert matrix_products[0] == k - 1 + last_product


@pytest.mark.parametrize("determinant", [right_determinant, left_determinant])
@pytest.mark.parametrize("k", [0, -1])
def test_kth_determinant_refuses_k_below_1_before_any_product(matrix_products, determinant, k):
    # the refusal is _adjoint_walk's, reached through sequence_product(A, side, k - 1)
    A = Matrix(IntegerRing(), [[2, -1], [0, 4]])
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        determinant(A, k)
    assert matrix_products[0] == 0


def test_adjoint_sequence_fails_fast_over_the_term_budget():
    from ncdet import TermLimitError

    algebra = FreeAlgebra(("a", "b", "c", "d"))
    algebra.term_limit = 40
    a, b, c, d = algebra.gens()
    A = Matrix(algebra, [[a, b], [c, d]])
    with pytest.raises(TermLimitError):
        adjoint_sequence(A, "right", 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_first_determinants_equal_sdet(n, monkeypatch):
    # at every n rdet_1 and ldet_1 are sdet's halves, which run neither the
    # preadjoint nor a trace, so they are checked against tr(A A*) and
    # tr(A* A) over the full sweep, and against the double sum while it is
    # small
    _, A = generic_matrix(n)
    star = preadjoint(A)
    with monkeypatch.context() as patch:
        for name in ("preadjoint", "trace_of_product"):
            patch.setattr(determinants, name, lambda *args: pytest.fail("rdet_1/ldet_1 left the halves"))
        rdet, ldet = right_determinant(A, 1), left_determinant(A, 1)
    assert rdet == trace_of_product(A, star)
    assert ldet == trace_of_product(star, A)
    if n <= 4:
        assert rdet == ldet == sdet_double_sum(A)


def test_closed_form_for_commutative_rdet_2(ints):
    A = Matrix(ints, [[1, 2], [3, 4]])
    # n {(n-1)!}^(1+n) det^n with n = 2: 2 det^2 = 2 * 4
    assert right_determinant(A, 2) == 8
    assert left_determinant(A, 2) == 8


def test_closed_form_for_commutative_3x3_k1(ints):
    A = Matrix(ints, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert commutative_det(A) == -3
    assert right_determinant(A, 1) == -18
    assert left_determinant(A, 1) == -18


def test_determinant_recursion_note():
    _, A = generic_matrix(2)
    P1 = preadjoint(A)
    assert right_determinant(A, 2) == right_determinant(A * P1, 1)
    assert left_determinant(A, 2) == left_determinant(P1 * A, 1)


def test_first_determinants_are_the_default():
    # with no k, rdet and ldet are rdet_1 = ldet_1 = sdet, not the k = 2 ones
    _, A = generic_matrix(2)
    for determinant in (right_determinant, left_determinant):
        assert determinant(A) == determinant(A, 1) == symmetric_determinant(A)
        assert determinant(A) != determinant(A, 2)


def test_sequence_product_matches_trace_shortcut():
    # the k-th product's trace against rdet_k/ldet_k, which are the halves
    # of the product before it and never form the k-th
    rng = random.Random(4)
    exterior = GrassmannAlgebra(4)
    for A in (
        generic_matrix(2)[1],
        random_int_matrix(rng, 4, IntegerRing()),
        random_grassmann_matrix(exterior, rng, 4),
        random_supermatrix(exterior, rng, 4, 2),
    ):
        for k in (1, 2):
            assert sequence_product(A, "right", k).trace() == right_determinant(A, k)
            assert sequence_product(A, "left", k).trace() == left_determinant(A, k)


def test_trace_of_product_agrees_with_full_product(ints):
    rng = random.Random(2)
    for _ in range(20):
        A = random_int_matrix(rng, 3, ints)
        B = random_int_matrix(rng, 3, ints)
        assert trace_of_product(A, B) == (A * B).trace()


# -- commutator defects ----------------------------------------------------------


def test_1x1_defect_is_zero():
    algebra = FreeAlgebra(("a",))
    A = Matrix(algebra, [[algebra.gen("a")]])
    result = commutator_defect(A, "right")
    assert result.defect.is_zero()
    assert result.scalar == algebra.gen("a")


def test_integer_defect_vanishes(ints):
    rng = random.Random(6)
    A = random_int_matrix(rng, 3, ints)
    for side in ("right", "left"):
        assert commutator_defect(A, side).defect.is_zero()


# -- conjugation ------------------------------------------------------------------


def test_conjugation_by_identity(ints):
    _, A = generic_matrix(2)
    assert conjugate(A, Matrix.identity(ints, 2)) == A


def test_conjugation_by_transvection_preserves_trace(ints):
    algebra, A = generic_matrix(2)
    T = Matrix(ints, [[1, 1], [0, 1]])
    C = conjugate(A, T)
    assert C.trace() == A.trace()
    # every entry is an integer combination of the generators
    for row in C.rows:
        for entry in row:
            assert entry.degree() <= 1


def test_conjugation_commutes_with_preadjoint(ints):
    _, A = generic_matrix(2)
    T = Matrix(ints, [[1, 1], [0, 1]])
    assert preadjoint(conjugate(A, T)) == conjugate(preadjoint(A), T)


def test_conjugation_rejects_non_unimodular(ints):
    _, A = generic_matrix(2)
    with pytest.raises(ValueError, match="unimodular"):
        conjugate(A, Matrix(ints, [[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="mismatch"):
        conjugate(A, Matrix.identity(ints, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_coefficient_matrices_of_generic_sdet_have_rank_binomial_squared(n):
    # M_t has the words of length t as rows, those of length n - t as
    # columns, and the coefficient in sdet of each concatenation; by Nisan
    # (STOC 1991) layer t of any algebraic branching program for sdet has
    # at least rank M_t nodes, and C(n, t)^2 is the number of (row set,
    # column set) pairs of size t, the states of the preadjoint sweep
    _, A = generic_matrix(n)
    terms = symmetric_determinant(A).terms
    for t in range(n + 1):
        prefixes = {w: i for i, w in enumerate(sorted({word[:t] for word in terms}))}
        suffixes = {w: j for j, w in enumerate(sorted({word[t:] for word in terms}))}
        rows = [[0] * len(suffixes) for _ in prefixes]
        for word, coeff in terms.items():
            rows[prefixes[word[:t]]][suffixes[word[t:]]] = coeff
        assert rank_mod_p(rows) == math.comb(n, t) ** 2
