import copy
import operator
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from ncdet import (
    CentralPoly,
    FreeAlgebra,
    FreePoly,
    GrassmannAlgebra,
    GrassmannElem,
    IntegerRing,
    Matrix,
    PolynomialRing,
    TermLimitError,
    commutator,
    right_determinant,
)
from ncdet import rings

from oracles import (
    IntMatrixRing,
    MatInt,
    central_poly_product_slices,
    central_poly_sum,
    free_product,
    grassmann_product,
    ring_axiom_check,
)


def integer_samples():
    return [-3, 0, 7]


def free_samples():
    algebra = FreeAlgebra(("a", "b"))
    a, b = algebra.gens()
    return [a, b, a * b - b * a]


def grassmann_samples():
    algebra = GrassmannAlgebra(4)
    v1, v2, v3, v4 = algebra.gens()
    return [algebra.one, v1, v1 * v2, v1 + v2 * v3, 2 * v4 - 1, v1 * v2 * v3 * v4]


def polynomial_samples():
    algebra = FreeAlgebra(("a", "b"))
    ring = PolynomialRing(algebra)
    a, b = (CentralPoly(ring, [g]) for g in algebra.gens())
    z = CentralPoly(ring, [algebra.zero, algebra.one])
    return [z, a + z, z * z - b, a * b + z * (a - b)]


@pytest.mark.parametrize(
    "ring,samples",
    [
        (IntegerRing(), integer_samples()),
        (FreeAlgebra(("a", "b")), free_samples()),
        (GrassmannAlgebra(4), grassmann_samples()),
        (PolynomialRing(FreeAlgebra(("a", "b"))), polynomial_samples()),
    ],
    ids=["integers", "free", "grassmann", "polynomials"],
)
def test_axioms_hold_on_100_seeded_triples(ring, samples):
    report = ring_axiom_check(ring, samples, trials=100, seed=42)
    assert report.ok, str(report)


def test_axiom_check_is_deterministic():
    ring = IntegerRing()
    first = ring_axiom_check(ring, integer_samples(), trials=10, seed=5)
    second = ring_axiom_check(ring, integer_samples(), trials=10, seed=5)
    assert first.results == second.results


def test_zero_trials_gives_empty_report():
    report = ring_axiom_check(IntegerRing(), [1], trials=0)
    assert report.results == {}
    assert report.ok


def test_axiom_check_rejects_empty_samples():
    with pytest.raises(ValueError):
        ring_axiom_check(IntegerRing(), [])


def test_commutator_examples():
    algebra = FreeAlgebra(("a", "b"))
    a, b = algebra.gens()
    assert commutator(a, b) == a * b - b * a
    assert commutator(2, 5) == 0
    E = GrassmannAlgebra(2)
    v1, v2 = E.gens()
    assert commutator(v1, v2) == 2 * (v1 * v2)


@pytest.mark.parametrize("ring_name", ["integers", "free", "grassmann"])
def test_commutator_is_alternating_and_antisymmetric(ring_name):
    samples = {
        "integers": integer_samples(),
        "free": free_samples(),
        "grassmann": grassmann_samples(),
    }[ring_name]
    rng = random.Random(3)
    for _ in range(50):
        x = rng.choice(samples)
        y = rng.choice(samples)
        zero = x - x
        assert commutator(x, x) == zero
        assert commutator(x, y) == -commutator(y, x) + zero


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_integer_commutator_always_vanishes(x, y):
    assert commutator(x, y) == 0


def test_equality_matches_canonical_rendering():
    algebra = FreeAlgebra(("a", "b", "c"))
    rng = random.Random(11)
    elements = [algebra.random_element(rng) for _ in range(40)]
    for x in elements:
        for y in elements:
            assert (x == y) == (str(x) == str(y))


# -- shared element arithmetic -------------------------------------------------


def arithmetic_cases():
    """(ring, x, y, element of a mismatched ring, its mismatch message)."""
    free = FreeAlgebra(("a", "b"))
    a, b = free.gens()
    E = GrassmannAlgebra(3)
    v1, v2, v3 = E.gens()
    ints = PolynomialRing(IntegerRing())
    over_free = PolynomialRing(free)
    z, z_free = CentralPoly(ints, [0, 1]), CentralPoly(over_free, [free.zero, free.one])
    return [
        (free, a * b - 2, b + a, FreeAlgebra(("x",)).gen("x"), "free algebras"),
        (E, v1 * v2 + 3, v3 - v1, GrassmannAlgebra(2).gen(1), "exterior algebras"),
        (ints, z * 2 - 1, z + 5, z_free, "different base rings"),
        (over_free, z_free * CentralPoly(over_free, [a]) - 1, CentralPoly(over_free, [b]) + 2,
         z, "different base rings"),
    ]


@pytest.mark.parametrize(
    "ring, x, y, stranger, message", arithmetic_cases(),
    ids=["free", "grassmann", "polynomials over integers", "polynomials over free"],
)
def test_shared_arithmetic(ring, x, y, stranger, message):
    assert x - y == x + (-y)
    assert (x - y) + y == x
    assert 3 - x == ring.from_int(3) + (-x)
    assert 3 * x == x + x + x == x * 3
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert ring.from_int(-4) == -4
    assert ring.one == 1 and ring.zero == 0
    assert x != -2
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(ValueError, match=message):
            op(x, stranger)
    with pytest.raises(TypeError):
        x + "s"


@pytest.mark.parametrize(
    "ring",
    [FreeAlgebra(("a",)), GrassmannAlgebra(2), PolynomialRing(IntegerRing()),
     PolynomialRing(FreeAlgebra(("a",)))],
    ids=["free", "grassmann", "polynomials over integers", "polynomials over free"],
)
def test_scalars_hash_as_the_ints_they_equal(ring):
    for k in (0, 1, 3, -2):
        x = ring.from_int(k)
        assert x == k and hash(x) == hash(k)
        assert len({x, k}) == 1 and k in {x}
    assert hash(ring.zero) == hash(0)
    assert hash(ring.one) == hash(1)


_RING_BUILDS = {
    "IntegerRing()": lambda: IntegerRing(),
    "FreeAlgebra(['a', 'b'])": lambda: FreeAlgebra(("a", "b")),
    "FreeAlgebra(['b', 'a'])": lambda: FreeAlgebra(("b", "a")),
    "FreeAlgebra(['a'])": lambda: FreeAlgebra(("a",)),
    "GrassmannAlgebra(rank=0)": lambda: GrassmannAlgebra(0),
    "GrassmannAlgebra(rank=2)": lambda: GrassmannAlgebra(2),
    "PolynomialRing(IntegerRing())": lambda: PolynomialRing(IntegerRing()),
    "PolynomialRing(FreeAlgebra(['a', 'b']))": lambda: PolynomialRing(FreeAlgebra(("a", "b"))),
    "PolynomialRing(GrassmannAlgebra(rank=2))": lambda: PolynomialRing(GrassmannAlgebra(2)),
    "PolynomialRing(PolynomialRing(IntegerRing()))": (
        lambda: PolynomialRing(PolynomialRing(IntegerRing()))
    ),
}


@pytest.mark.parametrize("text", _RING_BUILDS)
def test_a_ring_equals_exactly_its_rebuilds(text):
    ring, twin = _RING_BUILDS[text](), _RING_BUILDS[text]()
    assert repr(ring) == text
    assert ring == twin and not ring != twin and hash(ring) == hash(twin)
    for other, build in _RING_BUILDS.items():
        if other != text:
            assert ring != build() and not ring == build()
    assert ring != text and ring != 0


def test_the_term_budget_is_not_part_of_a_rings_identity():
    small = FreeAlgebra(("a", "b"))
    small.term_limit = 5
    assert small == FreeAlgebra(("a", "b")) and hash(small) == hash(FreeAlgebra(("a", "b")))


@pytest.mark.parametrize("coeff", [1.5, 0.5, "7"])
def test_coefficients_are_integers_not_truncated(coeff):
    with pytest.raises(TypeError):
        FreePoly(FreeAlgebra(("a",)), {(0,): coeff})
    with pytest.raises(TypeError):
        GrassmannElem(GrassmannAlgebra(2), {(1,): coeff})
    for ring in (IntegerRing(), FreeAlgebra(("a",)), GrassmannAlgebra(2),
                 PolynomialRing(IntegerRing())):
        with pytest.raises(TypeError):
            ring.from_int(coeff)


# bench/tracer.py wraps the methods in vars(cls) of each element class, not
# inherited ones: if these moved to a shared base, the benchmark's *.add.*
# and render metrics would silently read zero
@pytest.mark.parametrize("cls", [FreePoly, GrassmannElem, CentralPoly])
def test_traced_methods_are_each_element_class_own(cls):
    assert {"__add__", "__radd__", "__mul__", "__str__"} <= set(vars(cls))
    assert cls.__add__ is cls.__radd__


# -- accumulator ---------------------------------------------------------------


def sparse_terms():
    """(ring, x, y) for each ring whose accumulator sums in place."""
    free = FreeAlgebra(("a", "b"))
    a, b = free.gens()
    E = GrassmannAlgebra(4)
    v1, v2, v3, _ = E.gens()
    return [(free, a * b - 2, b + a * a), (E, v1 * v2 + 3, v3 - v1)]


@pytest.mark.parametrize(
    "ring",
    [IntegerRing(), FreeAlgebra(("a",)), GrassmannAlgebra(3), PolynomialRing(GrassmannAlgebra(2))],
    ids=["integers", "free", "grassmann", "polynomials"],
)
def test_empty_sum_is_zero(ring):
    assert ring.total(ring.accumulator()) == ring.zero


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_negative_first_term(ring, x, y):
    acc = ring.accumulator()
    acc -= x
    acc += y
    assert ring.total(acc) == y - x


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_full_cancellation_stores_no_keys(ring, x, y):
    acc = ring.accumulator()
    acc += x
    acc += y
    acc -= x
    acc -= y
    result = ring.total(acc)
    assert result == ring.zero
    assert result._terms == {}


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_summing_a_term_with_itself_leaves_it_unchanged(ring, x, y):
    before = dict(x._terms)
    doubled = ring.accumulator()
    doubled += x
    doubled += x
    assert ring.total(doubled) == 2 * x
    cancelled = ring.accumulator()
    cancelled += x
    cancelled -= x
    assert ring.total(cancelled).is_zero()
    assert x._terms == before


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_a_handed_out_sum_is_never_mutated(ring, x, y):
    acc = ring.accumulator()
    acc += x
    acc += y
    first = ring.total(acc)
    snapshot = dict(first._terms)
    acc = ring.accumulator()
    acc += first
    acc += y
    assert ring.total(acc) == x + 2 * y
    assert first._terms == snapshot


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
@pytest.mark.parametrize("filled", [False, True])
def test_a_totalled_sum_refuses_every_further_use(ring, x, y, filled):
    acc = ring.accumulator()
    if filled:
        acc += x
        acc -= x * y
    result = ring.total(acc)
    assert result == (x - x * y if filled else ring.zero)
    held = _held(result)
    uses = (
        lambda: operator.iadd(acc, y),  # acc += y
        lambda: operator.isub(acc, y),  # acc -= y
        lambda: ring.total(acc),
    )
    for use in uses:
        with pytest.raises(RuntimeError, match="sum has been totalled"):
            use()
    assert _held(result) == held


# -- the cached right-operand view ----------------------------------------------

_ORACLE_PRODUCTS = {FreeAlgebra: free_product, GrassmannAlgebra: grassmann_product}


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_an_element_times_itself(ring, x, y):
    x = x + 0  # an equal element whose view is not filled yet
    expected = _ORACLE_PRODUCTS[type(ring)](x, x)
    for _ in range(2):  # the second product reads the view the first one kept
        assert dict((x * x).terms) == expected


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_a_right_operand_summed_and_handed_out_keeps_a_true_view(ring, x, y):
    oracle = _ORACLE_PRODUCTS[type(ring)]
    x = x + 0
    y * x  # fills the view of x
    acc = ring.accumulator()
    acc += x
    alone = ring.total(acc)
    assert alone == x
    acc = ring.accumulator()
    acc += alone
    acc += y
    total = ring.total(acc)
    assert dict((y * total).terms) == oracle(y, total)  # fills the view of total
    acc = ring.accumulator()
    acc += total
    acc -= x
    acc += y
    assert ring.total(acc) == 2 * y
    for right in (x, alone, total):
        assert dict((y * right).terms) == oracle(y, right)
        assert dict((right * right).terms) == oracle(right, right)


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_copies_of_an_element_with_a_view_are_equal_and_multiply_the_same(ring, x, y):
    x = x + 0
    y * x
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert twin == x and hash(twin) == hash(x)
        assert y * twin == y * x and twin * twin == x * x
        assert str(y * twin) == str(y * x)


@pytest.mark.parametrize("ring, x, y", sparse_terms(), ids=["free", "grassmann"])
def test_equality_and_hash_never_read_the_view(ring, x, y):
    poisoned = x + 0
    poisoned._view = [("not", "a", "view")]
    assert poisoned == x and x == poisoned and poisoned != y
    assert hash(poisoned) == hash(x)
    assert {x: "x"}[poisoned] == "x"


def test_a_sum_over_the_term_budget_raises():
    algebra = FreeAlgebra(("a", "b", "c"))
    algebra.term_limit = 2
    a, b, c = algebra.gens()
    acc = algebra.accumulator()
    acc += a
    acc -= b
    with pytest.raises(TermLimitError, match="sum grew to 3 terms, over the budget of 2"):
        acc += c


def test_an_integer_sum_past_the_digit_limit_raises(monkeypatch):
    ints = IntegerRing()
    monkeypatch.setattr(rings, "_max_str_digits", lambda: 5)
    assert ints.total(99_999) == 99_999
    assert ints.total(-99_999) == -99_999
    for over in (100_000, -100_000, 10**40):
        with pytest.raises(TermLimitError, match="integer sum grew past 5 digits"):
            ints.total(over)
    monkeypatch.setattr(rings, "_max_str_digits", lambda: 0)  # 0: no limit
    assert ints.total(10**40) == 10**40


def test_an_integer_kdet_past_the_interpreters_digit_limit_raises():
    A = Matrix(IntegerRing(), [[1, 2], [3, 4]])
    assert len(str(right_determinant(A, 14))) == 2467
    with pytest.raises(TermLimitError, match="digits"):
        right_determinant(A, 30)


def test_accumulator_rejects_elements_of_another_algebra():
    acc = FreeAlgebra(("a",)).accumulator()
    acc += FreeAlgebra(("a",)).gen("a")
    with pytest.raises(ValueError):
        acc += FreeAlgebra(("b",)).gen("b")


_FREE = FreeAlgebra(("a", "b"))
_GRASSMANN = GrassmannAlgebra(4)
_coefficients = st.integers(-3, 3)
_free_elements = st.dictionaries(
    st.lists(st.integers(0, 1), max_size=2).map(tuple), _coefficients, max_size=3
).map(lambda terms: FreePoly(_FREE, terms))
_grassmann_elements = st.dictionaries(st.integers(0, 15), _coefficients, max_size=3).map(
    lambda terms: GrassmannElem(_GRASSMANN, terms)
)


def _polynomials(base, coefficients):
    """R[z] over base, with polynomials of degree up to 3 (so that products
    over a sparse base take the packed route and the slice loop) and ints."""
    ring = PolynomialRing(base)
    return ring, st.one_of(
        st.lists(coefficients, max_size=4).map(lambda cs: CentralPoly(ring, cs)), _coefficients
    )


_summands = {
    "free": (_FREE, st.one_of(_free_elements, _coefficients)),
    "grassmann": (_GRASSMANN, st.one_of(_grassmann_elements, _coefficients)),
    "integers": (IntegerRing(), st.integers(-50, 50)),
    "polynomials over free": _polynomials(_FREE, _free_elements),
    "polynomials over grassmann": _polynomials(_GRASSMANN, _grassmann_elements),
    "polynomials over integers": _polynomials(IntegerRing(), _coefficients),
}


def _held(x):
    """What an operand holds, read without its view."""
    if isinstance(x, rings.SparseElement):
        return dict(x._terms)
    if isinstance(x, CentralPoly):
        return [_held(c) for c in x.coefficients]
    return str(x)


def _lift(ring, x):
    return ring.from_int(x) if isinstance(x, int) else x


def _plain_sum(ring, x, y):
    """x + y; over R[z] slice by slice, by the base ring's + alone."""
    if isinstance(ring, PolynomialRing):
        return central_poly_sum(_lift(ring, x), _lift(ring, y))
    return x + y


def _plain_product(ring, x, y):
    """x * y; over R[z] slice by slice, by the base ring's * and + alone."""
    if isinstance(ring, PolynomialRing):
        return central_poly_product_slices(_lift(ring, x), _lift(ring, y))
    return x * y


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_summands)).flatmap(
    lambda kind: st.tuples(
        st.just(kind), st.lists(st.tuples(st.booleans(), _summands[kind][1]), max_size=8)
    )
))
def test_accumulator_matches_repeated_immutable_sums(case):
    kind, steps = case
    ring = _summands[kind][0]
    snapshots = [_held(x) for _, x in steps]
    acc = ring.accumulator()
    expected = ring.zero
    for negative, x in steps:
        if negative:
            acc -= x
            expected = _plain_sum(ring, expected, -x)
        else:
            acc += x
            expected = _plain_sum(ring, expected, x)
    result = ring.total(acc)
    assert result == expected
    assert str(result) == str(expected)
    assert [_held(x) for _, x in steps] == snapshots


@pytest.mark.parametrize(
    "base, u",
    [(_FREE, _FREE.gen("a")), (_GRASSMANN, _GRASSMANN.gen(1)), (IntegerRing(), 2)],
    ids=["free", "grassmann", "integers"],
)
def test_polynomial_sums_whose_top_slices_cancel(base, u):
    ring = PolynomialRing(base)
    zero, one = base.zero, base.one
    acc = ring.accumulator()
    acc += CentralPoly(ring, [one, u, u])
    acc -= CentralPoly(ring, [one, one, u])
    assert ring.total(acc).coefficients == (zero, u - one)
    # (1 + z + z^2)(1 + z^2) less its top two slices, as one dot
    top = CentralPoly(ring, [zero, zero, zero, one, one])
    x, y = CentralPoly(ring, [one, one, one]), CentralPoly(ring, [one, zero, one])
    first = ring.dot([top, x], [ring.one, y], [(0, 0, True), (1, 1, False)])
    assert first.coefficients == (one, one, one + one)
    # and a dot from that result that cancels to nothing
    terms = [(0, 0, False), (1, 1, False), (2, 0, False)]
    assert ring.dot([first, -x, top], [ring.one, y], terms).coefficients == ()


def test_polynomial_operands_coerce_or_refuse_as_the_product_does():
    ring = PolynomialRing(_FREE)
    a = _FREE.gen("a")
    x = CentralPoly(ring, [a, _FREE.one])
    twin = CentralPoly(PolynomialRing(FreeAlgebra(("a", "b"))), [a, a, a])
    stranger = CentralPoly(PolynomialRing(FreeAlgebra(("x",))), [FreeAlgebra(("x",)).gen("x")])
    for left, right in ((x, stranger), (stranger, x)):
        with pytest.raises(ValueError, match=CentralPoly._MISMATCH):
            ring.dot([x, left], [x, right], [(0, 0, False), (1, 1, False)])
    with pytest.raises(ValueError, match=CentralPoly._MISMATCH):
        ring.accumulator() + stranger
    # an operand of no ring, or of the base ring, is a TypeError, as for *
    for other in (None, a):
        for left, right in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                left * right
            with pytest.raises(TypeError):
                ring.dot([x, left], [x, right], [(0, 0, False), (1, 1, False)])
    acc = ring.accumulator()
    acc += ring.dot([3, twin, 2], [x, twin, 3], [(0, 0, False), (1, 1, True), (2, 2, False)])
    acc -= twin
    expected = central_poly_product_slices(ring.from_int(3), x)
    expected = central_poly_sum(expected, -central_poly_product_slices(twin, twin))
    expected = central_poly_sum(central_poly_sum(expected, ring.from_int(6)), -twin)
    assert ring.total(acc) == expected


def test_a_polynomial_dot_is_one_base_dot_per_degree(monkeypatch):
    base = FreeAlgebra(("a", "b"))
    a, b = base.gens()
    ring = PolynomialRing(base)
    x, y = CentralPoly(ring, [a, b]), CentralPoly(ring, [b, base.zero, a * b])
    calls, original = [], FreeAlgebra.dot

    def dot(self, xs, ys, terms):
        calls.append(len(terms))
        return original(self, xs, ys, terms)

    monkeypatch.setattr(FreeAlgebra, "dot", dot)
    # x y - y x + 2 y: coefficient products by degree 1 + 1 + 1, 2 + 2 + 1,
    # 2 + 2 + 1 and 1 + 1 (y keeps its zero middle coefficient)
    result = ring.dot([x, y, 2], [y, x, y], [(0, 0, False), (1, 1, True), (2, 2, False)])
    assert calls == [3, 5, 5, 2]
    assert result == central_poly_sum(
        central_poly_sum(central_poly_product_slices(x, y), -central_poly_product_slices(y, x)),
        central_poly_product_slices(ring.from_int(2), y),
    )


# -- fused products --------------------------------------------------------------

_INT_MATRICES = IntMatrixRing(2)
_factors = {
    **_summands,
    "integer matrices": (_INT_MATRICES, st.one_of(
        st.lists(_coefficients, min_size=4, max_size=4).map(
            lambda v: MatInt(_INT_MATRICES, (tuple(v[:2]), tuple(v[2:])))
        ),
        _coefficients,
    )),
}


def _views_hold(x) -> bool:
    """Whether every view cached in x is the one its terms give now.

    A Grassmann view is the list of right terms and the per-left-mask
    tables: its list must equal a fresh one, and each table that fresh
    list filtered to the terms disjoint from its mask.
    """
    if isinstance(x, CentralPoly):
        return all(_views_hold(c) for c in x.coefficients)
    if not isinstance(x, rings.SparseElement) or x._view is None:
        return True
    fresh = x._raw(x.ring, dict(x._terms))
    x.ring.one * fresh
    if not isinstance(x, GrassmannElem):
        return fresh._view == x._view
    (right, tables), (fresh_right, _) = x._view, fresh._view
    return right == fresh_right and all(
        table == [term for term in fresh_right if not mask & term[0]]
        for mask, table in tables.items()
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_factors)).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        # the summands before the product: none, one or two, each as a
        # product by one
        st.lists(_factors[kind][1], max_size=2),
        # whether those summands were handed out first as one element, and
        # that element put in their place
        st.booleans(),
        _factors[kind][1],
        _factors[kind][1],
        st.booleans(),
        st.sampled_from((None, 0, 1)),  # which operand, if any, is the one summand
    )
))
def test_dot_adds_its_products_and_writes_only_the_sum(case):
    kind, summands, hand_out, x, y, negative, shared = case
    ring = _factors[kind][0]
    if len(summands) == 1 and shared is not None:
        x, y = (summands[0], y) if shared == 0 else (x, summands[0])
    handed = []
    if hand_out:
        handed = [ring.dot(summands, [ring.one], [(k, 0, False) for k in range(len(summands))])]
    lefts = [*(handed or summands), x]
    terms = [(k, 0, False) for k in range(len(lefts) - 1)] + [(len(lefts) - 1, 1, negative)]
    operands = (x, y, *summands, *handed)
    before = [_held(e) for e in operands]
    result = ring.dot(lefts, [ring.one, y], terms)
    assert [_held(e) for e in operands] == before
    expected = ring.zero
    for term in summands:
        expected = _plain_sum(ring, expected, term)
    product = _plain_product(ring, x, y)
    expected = _plain_sum(ring, expected, -product if negative else product)
    assert result == expected
    assert str(result) == str(expected)
    assert all(_views_hold(e) for e in (*operands, result))


def _budget_case(kind):
    """A ring with a budget of 3 and two of its generators."""
    ring = FreeAlgebra(("a", "b", "c")) if kind == "free" else GrassmannAlgebra(3)
    ring.term_limit = 3
    return (ring, *ring.gens())


@pytest.mark.parametrize("kind", ["free", "grassmann"])
def test_a_fused_product_over_the_pair_budget_raises_as_the_product_does(kind):
    ring, u, w, _ = _budget_case(kind)
    with pytest.raises(TermLimitError) as product:
        (u + w) * (u - w)
    assert str(product.value) == "product would enumerate 4 term pairs, over the budget of 3"
    for summands in ([], [u], [u, w]):
        terms = [(k, 0, False) for k in range(len(summands))]
        with pytest.raises(TermLimitError) as fused:
            ring.dot([*summands, u + w], [ring.one, u - w], [*terms, (len(summands), 1, False)])
        assert str(fused.value) == str(product.value)
    # a right operand with a used view is refused the same way; the budget
    # is checked before the view is read, so a refused Grassmann product
    # builds no per-left-mask table
    right = u - w
    u * right
    with pytest.raises(TermLimitError) as reused:
        (u + w) * right
    assert str(reused.value) == str(product.value)
    with pytest.raises(TermLimitError) as fused:
        ring.dot([u, u + w], [ring.one, right], [(0, 0, False), (1, 1, False)])
    assert str(fused.value) == str(product.value)
    if kind == "grassmann":
        assert right._view[1] == {}


@pytest.mark.parametrize("kind", ["free", "grassmann"])
def test_a_fused_product_that_grows_the_sum_over_the_budget_raises(kind):
    ring, u, w, t = _budget_case(kind)
    terms = [(0, 0, False), (1, 0, False), (2, 1, False)]
    # u + w, then t (u + w) through the kernel, or as an int times an
    # element, coerced and folded
    for last, right in ((t, u + w), (1, t * (u + w))):
        with pytest.raises(TermLimitError, match="sum grew to 4 terms, over the budget of 3"):
            ring.dot([u, w, last], [ring.one, right], terms)


@pytest.mark.parametrize(
    "build, stranger",
    [(lambda: FreeAlgebra(("a", "b")), FreeAlgebra(("x",)).gen("x")),
     (lambda: GrassmannAlgebra(3), GrassmannAlgebra(2).gen(1))],
    ids=["free", "grassmann"],
)
def test_fused_operands_coerce_or_refuse_as_the_product_does(build, stranger):
    ring = build()
    u, v = ring.gens()[:2]
    # after a product the kernel has written, as x * y folded into the sum
    for other, error in ((stranger, ValueError), (None, TypeError)):
        for x, y in ((u, other), (other, u), (other, other)):
            xs, ys, terms = [u, x], [v, y], [(0, 0, False), (1, 1, False)]
            with pytest.raises(error) as fused:
                ring.dot(xs, ys, terms)
            with pytest.raises(error) as looped:
                _loop_dot(ring, xs, ys, terms)
            assert str(fused.value) == str(looped.value)


# -- dot: one call per sum of products ------------------------------------------


def _loop_dot(ring, xs, ys, terms):
    """What ``ring.dot`` must equal: each product built by ``*`` and folded
    into the ring's running sum."""
    acc = ring.accumulator()
    for i, j, negative in terms:
        product = xs[i] * ys[j]
        if negative:
            acc -= product
        else:
            acc += product
    return ring.total(acc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_factors)).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.lists(_factors[kind][1], min_size=1, max_size=3),
        st.lists(_factors[kind][1], min_size=1, max_size=3),
        # indices taken modulo the lists' lengths, so repeats are common
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.booleans()), max_size=6),
    )
))
def test_dot_matches_the_accumulator_loop(case):
    kind, xs, ys, terms = case
    ring = _factors[kind][0]
    terms = [(i % len(xs), j % len(ys), negative) for i, j, negative in terms]
    operands = (*xs, *ys)
    before = [_held(e) for e in operands]
    result = ring.dot(xs, ys, terms)
    assert [_held(e) for e in operands] == before
    expected = _loop_dot(ring, xs, ys, terms)
    assert result == expected
    assert str(result) == str(expected)
    plain = ring.zero
    for i, j, negative in terms:
        product = _plain_product(ring, xs[i], ys[j])
        plain = _plain_sum(ring, plain, -product if negative else product)
    assert result == plain
    assert all(_views_hold(e) for e in (*operands, result))


@pytest.mark.parametrize("kind", sorted(_factors))
def test_dot_over_no_terms_is_zero(kind):
    ring = _factors[kind][0]
    assert ring.dot([], [], []) == ring.zero
    assert str(ring.dot([ring.one], [ring.one], [])) == str(ring.zero)


def _refusal(sum_of_products):
    with pytest.raises(TermLimitError) as caught:
        sum_of_products()
    return str(caught.value)


@pytest.mark.parametrize("kind", ["free", "grassmann"])
def test_dot_over_the_budget_refuses_as_the_loop_does(kind):
    ring, u, w, t = _budget_case(kind)
    cases = [
        # one product of 4 term pairs, first or after a written product
        (([u + w], [u - w], [(0, 0, False)]), "product would enumerate 4 term pairs"),
        (([u, u + w], [w, u - w], [(0, 0, False), (1, 1, True)]), "product would enumerate 4 term pairs"),
        # u + w, then t (u + w) grows the sum to 4 terms
        (([u, w, t], [ring.one, u + w], [(0, 0, False), (1, 0, False), (2, 1, False)]), "sum grew to 4 terms"),
    ]
    for (xs, ys, terms), start in cases:
        message = _refusal(lambda: ring.dot(xs, ys, terms))
        assert message == _refusal(lambda: _loop_dot(ring, xs, ys, terms))
        assert message == f"{start}, over the budget of 3"


@pytest.mark.parametrize(
    "build, stranger",
    [(lambda: FreeAlgebra(("a", "b")), FreeAlgebra(("x",)).gen("x")),
     (lambda: GrassmannAlgebra(3), GrassmannAlgebra(2).gen(1))],
    ids=["free", "grassmann"],
)
def test_dot_operands_coerce_or_refuse_as_add_product_does(build, stranger):
    ring = build()
    u, v = ring.gens()[:2]
    twin = build().gens()[0]  # of an equal, distinct ring
    for x, y in ((u, stranger), (stranger, u), (stranger, stranger)):
        with pytest.raises(ValueError, match=stranger._MISMATCH):
            ring.dot([u, x], [u, y], [(0, 0, False), (1, 1, False)])
    xs, ys = [3, u, twin, 2, u], [u, -2, u, 3, v]
    terms = [(0, 0, False), (1, 1, True), (2, 2, False), (3, 3, False), (4, 4, True)]
    assert ring.dot(xs, ys, terms) == _loop_dot(ring, xs, ys, terms) == 5 * u + u * u + 6 - u * v


def test_an_integer_dot_past_the_digit_limit_raises(monkeypatch):
    ints = IntegerRing()
    monkeypatch.setattr(rings, "_max_str_digits", lambda: 5)
    assert ints.dot([999, 100], [100, 1], [(0, 0, False), (1, 1, True)]) == 99_800
    for negative in (False, True):
        with pytest.raises(TermLimitError, match="integer sum grew past 5 digits"):
            ints.dot([1000], [100], [(0, 0, negative)])
