import random

import pytest
from hypothesis import given, settings, strategies as st

from ncdet import (
    FreeAlgebra,
    FreePoly,
    GrassmannAlgebra,
    GrassmannElem,
    IntegerRing,
    PolynomialRing,
    TermLimitError,
    commutator,
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
    ring = PolynomialRing(FreeAlgebra(("a", "b")))
    a, b = (ring.from_base(g) for g in ring.base.gens())
    z = ring.z
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


def test_a_sum_over_the_term_budget_raises():
    algebra = FreeAlgebra(("a", "b", "c"), term_limit=2)
    a, b, c = algebra.gens()
    acc = algebra.accumulator()
    acc += a
    acc -= b
    with pytest.raises(TermLimitError, match="sum grew to 3 terms, over the budget of 2"):
        acc += c


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
