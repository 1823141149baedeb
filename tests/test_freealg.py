import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ncdet import (
    FreeAlgebra,
    FreePoly,
    GrassmannAlgebra,
    IntegerRing,
    RingSpec,
    TermLimitError,
    commutator,
    in_commutator_span,
    specialize,
)

from oracles import commutator_span_oracle, cyclic_span_oracle, deglex_text, free_product


@pytest.fixture
def free_ab():
    return FreeAlgebra(("a", "b"))


def test_monomials_concatenate(free_ab):
    a, b = free_ab.gens()
    assert a * b == free_ab.monomial((0, 1))
    assert str(a * b) == "a*b"


def test_product_respects_noncommutativity(free_ab):
    a, b = free_ab.gens()
    product = (a + b) * (a - b)
    assert product == a * a - a * b + b * a - b * b
    assert product != a * a - b * b


def test_one_is_identity(free_ab):
    a, b = free_ab.gens()
    p = a * b - b * a
    assert p * free_ab.one == p
    assert free_ab.one * p == p


def test_mixed_generator_sets_are_rejected(free_ab):
    other = FreeAlgebra(("x", "y"))
    with pytest.raises(ValueError):
        free_ab.gen("a") * other.gen("x")


@pytest.mark.parametrize("build", [FreeAlgebra, lambda names: RingSpec.free(*names)], ids=["algebra", "spec"])
def test_names_the_parser_cannot_read_are_refused(build):
    # "α" is a Python identifier, but the expression tokenizer reads ASCII only
    with pytest.raises(ValueError, match="invalid generator name 'α'"):
        build(["a", "α"])


def test_deglex_rendering_order(free_ab):
    a, b = free_ab.gens()
    p = b * a + a - 3 + 2 * (a * b)
    assert str(p) == "-3 + a + 2*a*b + b*a"


# letters take max(1, (g-1).bit_length()) bits: 1, 1, 1, 2, 3, 4, 5 and 6
_GENERATOR_COUNTS = (0, 1, 2, 3, 5, 9, 17, 36)


def _free_terms(g):
    words = st.lists(st.integers(0, g - 1), max_size=7).map(tuple) if g else st.just(())
    return st.dictionaries(words, st.integers(-3, 3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_GENERATOR_COUNTS).flatmap(
    lambda g: st.tuples(st.just(g), _free_terms(g), _free_terms(g), st.integers(0, 6))
))
# a*a - a + a*a*a - a*a: the a*a terms cancel
@example((1, {(0,): 1, (0, 0): 1}, {(0,): 1, (): -1}, 0))
def test_packed_words_match_the_tuple_word_oracle(case):
    g, left, right, turn = case
    algebra = FreeAlgebra([f"x{i}" for i in range(g)])
    x, y = FreePoly(algebra, left), FreePoly(algebra, right)
    expected = free_product(x, y)
    product = x * y
    assert dict(product.terms) == expected
    assert str(product) == deglex_text(algebra.names, expected)
    assert str(x) == deglex_text(algebra.names, {w: c for w, c in left.items() if c})
    assert product.degree() == max(map(len, expected), default=-1)
    assert product.constant_term() == expected.get((), 0)
    assert in_commutator_span(x) == cyclic_span_oracle(x)
    # a word and its rotations share a cyclic class, which holds no other word
    for word in left:
        w = algebra.monomial(word)
        rotated = word[turn % len(word):] + word[:turn % len(word)] if word else word
        assert in_commutator_span(w - algebra.monomial(rotated))
        assert not in_commutator_span(w + algebra.monomial(rotated))
        if g:
            assert not in_commutator_span(w - algebra.monomial((0,) + word))


def test_term_limit_guardrail():
    algebra = FreeAlgebra(("a", "b"), term_limit=3)
    a, b = algebra.gens()
    p = a + b + a * b
    with pytest.raises(TermLimitError):
        p * p


# -- commutator subgroup membership ------------------------------------------


def test_generating_commutator_is_in_span(free_ab):
    a, b = free_ab.gens()
    assert in_commutator_span(a * b - b * a)


def test_rotated_word_difference_is_in_span(free_ab):
    a, b = free_ab.gens()
    aab_minus_aba = a * a * b - a * b * a
    assert aab_minus_aba == commutator(a, a * b)
    assert in_commutator_span(aab_minus_aba)


def test_anticommutator_is_not_in_span(free_ab):
    # independent check first: the bounded integer-span oracle agrees
    a, b = free_ab.gens()
    target = a * b + b * a
    assert commutator_span_oracle(target) is False
    assert in_commutator_span(target) is False


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_single_monomials_are_never_in_span(degree):
    algebra = FreeAlgebra(("a", "b"))
    rng = random.Random(degree)
    for _ in range(10):
        word = tuple(rng.randrange(2) for _ in range(degree))
        assert not in_commutator_span(algebra.monomial(word))


def test_random_commutators_stay_in_span():
    algebra = FreeAlgebra(("a", "b", "c", "d"))
    rng = random.Random(42)
    for _ in range(200):
        p = algebra.random_element(rng, max_degree=3)
        q = algebra.random_element(rng, max_degree=3)
        assert in_commutator_span(commutator(p, q))


def test_membership_is_additive():
    algebra = FreeAlgebra(("a", "b", "c"))
    rng = random.Random(9)
    for _ in range(50):
        p = commutator(
            algebra.random_element(rng, max_degree=2),
            algebra.random_element(rng, max_degree=1),
        )
        q = commutator(
            algebra.random_element(rng, max_degree=1),
            algebra.random_element(rng, max_degree=2),
        )
        assert in_commutator_span(p) and in_commutator_span(q)
        assert in_commutator_span(p + q)


def test_cyclic_criterion_matches_bruteforce_oracle():
    algebra = FreeAlgebra(("a", "b", "c"))
    rng = random.Random(123)
    agreements = 0
    for i in range(50):
        if i % 2 == 0:
            p = algebra.zero
            for _ in range(rng.randint(1, 3)):
                u = algebra.random_element(rng, max_degree=2, max_terms=2)
                v = algebra.random_element(rng, max_degree=1, max_terms=2)
                p = p + commutator(u, v)
        else:
            p = algebra.random_element(rng, max_degree=3, max_terms=4)
        assert in_commutator_span(p) == commutator_span_oracle(p)
        agreements += 1
    assert agreements == 50


# -- specialization -----------------------------------------------------------


def test_specialize_kills_commutator_over_integers(free_ab):
    a, b = free_ab.gens()
    p = a * b - b * a
    assert specialize(p, {"a": 2, "b": 5}, IntegerRing()) == 0


def test_specialize_monomial_into_grassmann(free_ab):
    E = GrassmannAlgebra(2)
    v1, v2 = E.gens()
    a, b = free_ab.gens()
    assert specialize(a * b, {"a": v1, "b": v2}, E) == v1 * v2


def test_specialize_sdet_pattern_to_integers():
    algebra = FreeAlgebra(("a", "b", "c", "d"))
    a, b, c, d = algebra.gens()
    p = a * d + d * a - b * c - c * b
    # 1*4 + 4*1 - 2*3 - 3*2 = -4
    assert specialize(p, {"a": 1, "b": 2, "c": 3, "d": 4}, IntegerRing()) == -4


def test_specialize_requires_total_assignment(free_ab):
    a, b = free_ab.gens()
    with pytest.raises(ValueError, match="no assignment"):
        specialize(a * b, {"a": 1}, IntegerRing())


def test_specialize_is_a_ring_map():
    algebra = FreeAlgebra(("a", "b", "c"))
    E = GrassmannAlgebra(3)
    rng = random.Random(77)
    for _ in range(100):
        p = algebra.random_element(rng, max_degree=2)
        q = algebra.random_element(rng, max_degree=2)
        images = {name: E.random_element(rng, max_terms=2) for name in algebra.names}
        fp = specialize(p, images, E)
        fq = specialize(q, images, E)
        assert specialize(p * q, images, E) == fp * fq
        assert specialize(p + q, images, E) == fp + fq


# -- property-based spot checks ----------------------------------------------

_words = st.lists(st.integers(0, 2), min_size=0, max_size=3).map(tuple)
_polys = st.dictionaries(_words, st.integers(-5, 5), max_size=4)


@settings(max_examples=60)
@given(_polys, _polys)
def test_commutators_always_pass_cyclic_criterion(terms_p, terms_q):
    algebra = FreeAlgebra(("a", "b", "c"))
    p = algebra.monomial((), 0) + sum(
        (algebra.monomial(w, c) for w, c in terms_p.items()), algebra.zero
    )
    q = sum((algebra.monomial(w, c) for w, c in terms_q.items()), algebra.zero)
    assert in_commutator_span(commutator(p, q))
