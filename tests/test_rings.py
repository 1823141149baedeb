import copy
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

from oracles import free_product, grassmann_product, ring_axiom_check


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
def test_lone_positive_term_comes_back_as_the_same_object(ring, x, y):
    acc = ring.accumulator()
    acc += x
    assert ring.total(acc) is x


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
    acc += y
    assert ring.total(acc) == x + 2 * y
    assert first._terms == snapshot


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
    assert ring.total(acc) is x
    acc += y
    total = ring.total(acc)
    assert dict((y * total).terms) == oracle(y, total)  # fills the view of total
    acc -= x
    acc += y
    assert ring.total(acc) == 2 * y
    for right in (x, total):
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
_summands = {
    "free": (_FREE, st.one_of(_free_elements, _coefficients)),
    "grassmann": (_GRASSMANN, st.one_of(_grassmann_elements, _coefficients)),
    "integers": (IntegerRing(), st.integers(-50, 50)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_summands)).flatmap(
    lambda kind: st.tuples(
        st.just(kind), st.lists(st.tuples(st.booleans(), _summands[kind][1]), max_size=8)
    )
))
def test_accumulator_matches_repeated_immutable_sums(case):
    kind, steps = case
    ring = _summands[kind][0]
    snapshots = [dict(getattr(x, "_terms", {})) for _, x in steps]
    acc = ring.accumulator()
    expected = ring.zero
    for negative, x in steps:
        if negative:
            acc -= x
            expected = expected - x
        else:
            acc += x
            expected = expected + x
    result = ring.total(acc)
    assert result == expected
    assert str(result) == str(expected)
    assert [dict(getattr(x, "_terms", {})) for _, x in steps] == snapshots
