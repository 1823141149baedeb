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
    with pytest.raises(TermLimitError):
        (v1 + v2 + v1 * v2) * (v1 + v2 + v1 * v2)


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
