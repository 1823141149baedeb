import itertools
import json
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ncdet import (
    FreeAlgebra,
    FreePoly,
    GrassmannAlgebra,
    IntegerRing,
    TermLimitError,
    commutator,
    in_commutator_span,
    loads_matrix,
    specialize,
)

from oracles import commutator_span_oracle, cyclic_span_oracle, deglex_text, free_product


@pytest.fixture
def free_ab():
    return FreeAlgebra(("a", "b"))


def test_monomials_concatenate(free_ab):
    a, b = free_ab.gens()
    assert a * b == FreePoly(free_ab, {(0, 1): 1})
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


def _document_ring(names):
    """The ring of a one-entry document whose ring spec (header) names these generators."""
    header = {"kind": "free", "generators": names}
    return loads_matrix(json.dumps({"ring": header, "n": 1, "entries": [["1"]]}))[0].ring


@pytest.mark.parametrize("build", [FreeAlgebra, _document_ring], ids=["algebra", "spec"])
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
    lambda g: st.tuples(st.just(g), _free_terms(g), _free_terms(g), st.integers(0, 6), _free_terms(g))
))
# a*a - a + a*a*a - a*a: the a*a terms cancel
@example((1, {(0,): 1, (0, 0): 1}, {(0,): 1, (): -1}, 0, {}))
# (a + 2*a*a + b) * (a*b - b + 2*b*b) through the right view the product
# above built, written less into -a*b + 3*a*a*a*b + 2*a*b*b: in each length
# group of the right operand (a*b, b*b and b) one pair writes a new word,
# one adds to a word already there and one cancels a word to zero; a*a*b
# is met by a pair of each group
@example((
    2,
    {(0,): 1, (0, 0): 2, (1,): 1},
    {(0, 1): 1, (1,): -1, (1, 1): 2},
    0,
    {(0, 1): -1, (0, 0, 0, 1): 3, (0, 1, 1): 2},
))
def test_packed_words_match_the_tuple_word_oracle(case):
    g, left, right, turn, held = case
    algebra = FreeAlgebra([f"x{i}" for i in range(g)])
    x, y = FreePoly(algebra, left), FreePoly(algebra, right)
    expected = free_product(x, y)
    product = x * y
    assert dict(product.terms) == expected
    assert str(product) == deglex_text(algebra.names, expected)
    # the same product, through the view it left, written less into a sum
    terms = [(0, 0, False), (1, 1, True)]
    written = algebra.dot([FreePoly(algebra, held), x], [algebra.one, y], terms)
    difference = {w: c for w, c in held.items() if c}
    for word, coeff in expected.items():
        difference[word] = difference.get(word, 0) - coeff
    assert dict(written.terms) == {w: c for w, c in difference.items() if c}
    fresh = FreePoly(algebra, right)
    algebra.one * fresh
    assert y._view == fresh._view
    assert str(x) == deglex_text(algebra.names, {w: c for w, c in left.items() if c})
    assert product.degree() == max(map(len, expected), default=-1)
    assert product.terms.get((), 0) == expected.get((), 0)
    assert in_commutator_span(x) == cyclic_span_oracle(x)
    # a word and its rotations share a cyclic class, which holds no other word
    for word in left:
        w = FreePoly(algebra, {word: 1})
        rotated = word[turn % len(word):] + word[:turn % len(word)] if word else word
        assert in_commutator_span(w - FreePoly(algebra, {rotated: 1}))
        assert not in_commutator_span(w + FreePoly(algebra, {rotated: 1}))
        if g:
            assert not in_commutator_span(w - FreePoly(algebra, {(0,) + word: 1}))


def test_a_product_through_a_used_view_makes_a_constant_number_of_calls():
    # no call per term pair, in either the many-word or the one-word loop:
    # 1 x 576 and 576 x 1 pairs, each product warm (its right view built)
    algebra = FreeAlgebra([f"x{i}" for i in range(9)])
    words = itertools.islice(itertools.product(range(9), repeat=4), 576)
    big = FreePoly(algebra, {word: 1 + i % 5 for i, word in enumerate(words)})
    one = FreePoly(algebra, {(3, 1): -2})
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    for x, y in ((one, big), (big, one)):
        x * y
        calls = 0
        sys.setprofile(count)
        try:
            product = x * y
        finally:
            sys.setprofile(None)
        assert calls <= 12
        assert dict(product.terms) == free_product(x, y)


def test_term_limit_guardrail():
    algebra = FreeAlgebra(("a", "b"))
    algebra.term_limit = 3
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
        assert not in_commutator_span(FreePoly(algebra, {word: 1}))


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
    p, q = FreePoly(algebra, terms_p), FreePoly(algebra, terms_q)
    assert in_commutator_span(commutator(p, q))
