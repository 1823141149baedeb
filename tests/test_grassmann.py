import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ncdet import (
    FreeAlgebra,
    GrassmannAlgebra,
    GrassmannElem,
    TermLimitError,
    commutator,
    graded_parts,
    lie_nilpotency_check,
)
from ncdet.grassmann import MAX_RANK
from oracles import grassmann_product


@pytest.fixture
def rank4():
    return GrassmannAlgebra(4)


def test_generators_anticommute(rank4):
    v1, v2 = rank4.gen(1), rank4.gen(2)
    assert v1 * v2 == -(v2 * v1)
    assert str(v1 * v2) == "v1*v2"


def test_squares_vanish(rank4):
    for v in rank4.gens():
        assert (v * v).is_zero()


def test_distributive_expansion(rank4):
    v1, v2 = rank4.gen(1), rank4.gen(2)
    product = (1 + v1) * (1 + v2)
    assert product == 1 + v1 + v2 + v1 * v2


def test_merge_sign_matches_inversion_count(rank4):
    v1, v2, v3, v4 = rank4.gens()
    # moving v1 past v2*v3 costs two swaps
    assert (v2 * v3) * v1 == v1 * v2 * v3
    # one swap
    assert (v2 * v4) * v3 == -(v2 * v3 * v4)


@st.composite
def _factor_pairs(draw):
    # half of the indices come from the top two generators of the rank, so
    # the sign of v15 and v16 against low generators is drawn often
    rank = draw(st.integers(0, MAX_RANK))
    if rank == 0:
        index = st.nothing()
    else:
        index = st.one_of(st.integers(1, rank), st.integers(max(1, rank - 1), rank))
    subsets = st.frozensets(index).map(lambda s: tuple(sorted(s)))
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    elements = st.dictionaries(subsets, coeffs, max_size=6)
    return rank, draw(elements), draw(elements)


@settings(max_examples=100, deadline=None)
@given(_factor_pairs())
@example((16, {(16,): 1}, {(1,): 1}))
@example((16, {(2, 15): 3}, {(1, 9, 16): -2}))
def test_product_matches_inversion_count_oracle(factors):
    rank, left, right = factors
    algebra = GrassmannAlgebra(rank)
    x, y = GrassmannElem(algebra, left), GrassmannElem(algebra, right)
    assert dict((x * y).terms) == grassmann_product(x, y)


def test_product_makes_no_call_per_term_pair():
    # a sign helper called per term pair costs one Python call for each of
    # the 3^6 disjoint pairs here; the sign scan runs once per right term
    algebra = GrassmannAlgebra(6)
    rng = random.Random(11)
    x, y = (GrassmannElem(algebra, {m: rng.choice((-2, -1, 1, 2)) for m in range(64)}) for _ in range(2))
    assert len(x.terms) == len(y.terms) == 64
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        product = x * y
    finally:
        sys.setprofile(None)
    assert calls <= len(y.terms) + 8
    assert dict(product.terms) == grassmann_product(x, y)


def test_a_product_through_a_used_view_makes_a_constant_number_of_calls():
    # the second product through y builds a table per left mask and the
    # third reuses them; neither calls anything per left term or pair
    algebra = GrassmannAlgebra(6)
    rng = random.Random(12)
    x, y, z = (GrassmannElem(algebra, {m: rng.choice((-2, -1, 1, 2)) for m in range(64)}) for _ in range(3))
    x * y
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    for left in (z, z):
        calls = 0
        sys.setprofile(count)
        try:
            product = left * y
        finally:
            sys.setprofile(None)
        assert calls <= 8
        assert dict(product.terms) == grassmann_product(left, y)
    assert len(y._view[1]) == 64


def test_a_right_operand_multiplied_once_builds_no_tables(rank4):
    v1, v2, v3, _ = rank4.gens()
    y = v2 + v1 * v3
    (v1 + v2) * y
    assert y._view[1] == {}
    w = v3 - v1 * v2
    value = rank4.dot([v1, v2 + 1], [rank4.one, w], [(0, 0, False), (1, 1, True)])
    assert w._view[1] == {}
    assert value == v1 - (v2 + 1) * (v3 - v1 * v2)



def test_the_tables_of_a_reused_operand_hold_at_most_the_pair_budget():
    # a right operand met by every left mask of rank 6 stops building
    # tables once they would pass term_limit references, and the masks
    # left without one walk the whole list
    algebra = GrassmannAlgebra(6)
    algebra.term_limit = 60
    v1, v2, v3, *_ = algebra.gens()
    y = 1 + v1 - 2 * v2 * v3 + v3
    y * y
    for mask in range(64):
        x = GrassmannElem(algebra, {mask: 3, 0: -1})
        assert dict((x * y).terms) == grassmann_product(x, y)
        terms, tables = y._view
        assert len(tables) * len(terms) <= algebra.term_limit
    assert len(tables) == 14  # 14 * 4 + 8 pairs would pass 60
    assert all(
        table == [term for term in terms if not mask & term[0]] for mask, table in tables.items()
    )


def test_a_table_is_complete_when_it_enters_the_view():
    # another thread multiplying through y reads a table as soon as it is
    # in the dict, so the kernel must fill it first
    algebra = GrassmannAlgebra(5)
    rng = random.Random(3)
    x, y = (algebra.random_element(rng, max_terms=12) for _ in range(2))
    x * y
    terms, _ = y._view
    published = []

    class Watch(dict):
        def __setitem__(self, mask, table):
            published.append(table == [term for term in terms if not mask & term[0]])
            super().__setitem__(mask, table)

    y._view = (terms, Watch())
    assert dict((x * y).terms) == grassmann_product(x, y)
    assert published and all(published)

@st.composite
def _shared_right_operands(draw):
    # one right operand and several left ones whose subsets come from a
    # small pool, so a later left operand meets masks seen and unseen
    rank = draw(st.integers(0, MAX_RANK))
    index = st.integers(1, rank) if rank else st.nothing()
    subset = st.frozensets(index, max_size=min(rank, 4)).map(lambda s: tuple(sorted(s)))
    pool = draw(st.lists(subset, min_size=1, max_size=6))
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    right = draw(st.dictionaries(subset, coeffs, max_size=6))
    lefts = draw(st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(pool), coeffs, max_size=4),
            st.sampled_from(("*", "add", "subtract")),
        ),
        min_size=2,
        max_size=5,
    ))
    return rank, right, lefts


@settings(max_examples=100, deadline=None)
@given(_shared_right_operands())
@example((0, {(): 2}, [({(): 3}, "*"), ({(): -1}, "subtract")]))
@example((16, {(): 1, (1, 16): 2, (15,): -1}, [({(16,): 1, (): 2}, "add"), ({(16,): 3, (2,): 1}, "*")]))
def test_products_through_a_reused_right_operand_match_the_oracle(case):
    rank, right, lefts = case
    algebra = GrassmannAlgebra(rank)
    y = GrassmannElem(algebra, right)
    for left, route in lefts:
        x = GrassmannElem(algebra, left)
        expected = grassmann_product(x, y)
        if route == "*":
            result = x * y
        else:
            result = algebra.dot([x], [y], [(0, 0, route == "subtract")])
            if route == "subtract":
                expected = {key: -coeff for key, coeff in expected.items()}
        assert dict(result.terms) == expected
    terms, tables = y._view
    assert all(
        table == [term for term in terms if not mask & term[0]] for mask, table in tables.items()
    )


def test_overlapping_subsets_multiply_to_zero(rank4):
    v1, v2 = rank4.gen(1), rank4.gen(2)
    assert ((v1 * v2) * (v2)).is_zero()


def test_rank_mismatch_rejected(rank4):
    other = GrassmannAlgebra(3)
    with pytest.raises(ValueError):
        rank4.gen(1) * other.gen(1)


def test_element_constructor_validates_subsets(rank4):
    with pytest.raises(ValueError):
        GrassmannElem(rank4, {(2, 1): 1})
    with pytest.raises(ValueError):
        GrassmannElem(rank4, {(0,): 1})
    with pytest.raises(ValueError):
        GrassmannElem(rank4, {(5,): 1})
    assert GrassmannElem(rank4, {(1, 3): 2, (): 1}) == 1 + 2 * (rank4.gen(1) * rank4.gen(3))


def test_product_over_the_pair_budget_raises():
    algebra = GrassmannAlgebra(4)
    algebra.term_limit = 8
    v1, v2, v3, v4 = algebra.gens()
    x = 1 + v1 + v2  # 3 x 3 = 9 term pairs
    with pytest.raises(TermLimitError) as caught:
        x * x
    assert str(caught.value) == "product would enumerate 9 term pairs, over the budget of 8"
    # 6 pairs are under the budget; the pairs count before any vanish
    assert x * (v3 + v4) == v1 * v3 + v1 * v4 + v2 * v3 + v2 * v4 + v3 + v4
    # 4 x 2 = 8 pairs are exactly the budget and pass
    y = v4 + v1 * v2
    assert (x + v3) * y == sum((a * y for a in (1, v1, v2, v3)), algebra.zero)
    with pytest.raises(TermLimitError):
        (v1 + v2 + v1 * v2) * (v1 + v2 + v1 * v2)


def test_a_rank_0_random_element_draws_no_mask():
    # rank 0 has the one mask 0: parity 0 keeps it and parity 1 returns
    # zero at once, where redrawing a mask of the wrong parity never ends
    class NoMasks(random.Random):
        def randrange(self, *args):
            # randint draws through randrange too; a rank-0 mask is randrange(1)
            if args == (1,):
                raise AssertionError("random_element redrew a mask at rank 0")
            return super().randrange(*args)

    algebra = GrassmannAlgebra(0)
    for seed in range(20):
        assert set(algebra.random_element(NoMasks(seed), parity=0).terms) <= {()}
    assert algebra.random_element(NoMasks(0), parity=1) == algebra.zero


def test_exterior_and_free_algebras_share_one_default_budget():
    assert GrassmannAlgebra(3).term_limit == FreeAlgebra(("a",)).term_limit == 10_000_000


def test_rank_bounds():
    with pytest.raises(ValueError):
        GrassmannAlgebra(17)
    with pytest.raises(ValueError):
        GrassmannAlgebra(-1)


def test_graded_parts_examples(rank4):
    v1, v2, v3 = rank4.gen(1), rank4.gen(2), rank4.gen(3)
    even, odd = graded_parts(1 + v1 + v1 * v2)
    assert even == 1 + v1 * v2
    assert odd == v1
    even, odd = graded_parts(rank4.zero)
    assert even.is_zero() and odd.is_zero()
    even, odd = graded_parts(v1 * v2 * v3)
    assert even.is_zero()
    assert odd == v1 * v2 * v3


def test_graded_parts_reassemble(rank4):
    rng = random.Random(5)
    for _ in range(50):
        x = rank4.random_element(rng, max_terms=4)
        even, odd = graded_parts(x)
        assert even + odd == x


def test_parity_is_multiplicative():
    algebra = GrassmannAlgebra(6)
    rng = random.Random(8)
    for _ in range(100):
        p1 = rng.choice((0, 1))
        p2 = rng.choice((0, 1))
        x = algebra.random_element(rng, parity=p1)
        y = algebra.random_element(rng, parity=p2)
        product = x * y
        even, odd = graded_parts(product)
        if (p1 + p2) % 2 == 0:
            assert odd.is_zero()
        else:
            assert even.is_zero()


def test_lie_nilpotency_of_index_two():
    assert lie_nilpotency_check(4, 2) is True
    assert lie_nilpotency_check(4, 1) is False
    assert lie_nilpotency_check(0, 1) is True


def test_lie_nilpotency_rejects_bad_index():
    with pytest.raises(ValueError):
        lie_nilpotency_check(4, 0)


@pytest.mark.parametrize("rank", range(9))
def test_triple_commutator_vanishes_at_every_rank(rank):
    algebra = GrassmannAlgebra(rank)
    rng = random.Random(rank)
    for _ in range(200):
        x = algebra.random_element(rng)
        y = algebra.random_element(rng)
        z = algebra.random_element(rng)
        assert commutator(commutator(x, y), z).is_zero()


def test_rendering_sorts_by_size_then_lexicographically():
    algebra = GrassmannAlgebra(4)
    v1, v2, v3 = algebra.gen(1), algebra.gen(2), algebra.gen(3)
    x = v1 * v2 * v3 + v2 * v3 - 2 * v1 + 7
    assert str(x) == "7 - 2*v1 + v2*v3 + v1*v2*v3"
