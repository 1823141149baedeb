import os
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

# the call counts below count the package's own frames: a collection
# triggered inside a product may run another library's gc callback
PACKAGE = os.path.dirname(sys.modules["ncdet"].__file__) + os.sep


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
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
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
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
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
    # one right operand y and several dots through it, whose left subsets
    # come from a small pool, so a later dot meets masks seen and unseen.
    # A dot's first left may be an int (the sum of its drawn coefficients)
    # or its first right y of an equal, distinct algebra; at rank 6 and
    # below a dot may aim at 2^rank - 1, 2^rank or 2^rank + 1 term pairs,
    # either side of the dense accumulator's threshold; a dot may repeat
    # each product with the opposite sign, so that all cancel; and the
    # budget may sit just below 2^rank
    rank = draw(st.one_of(st.integers(1, 6), st.integers(0, MAX_RANK)))
    index = st.integers(1, rank) if rank else st.nothing()
    subset = st.frozensets(index, max_size=min(rank, 4)).map(lambda s: tuple(sorted(s)))
    pool = draw(st.lists(subset, min_size=1, max_size=6))
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    right = draw(st.dictionaries(subset, coeffs, max_size=6))
    unit = draw(st.tuples(st.sampled_from(pool), coeffs))
    product = st.tuples(st.dictionaries(st.sampled_from(pool), coeffs, max_size=4), st.booleans())
    dots = draw(st.lists(
        st.tuples(
            st.lists(product, min_size=1, max_size=3),
            st.sampled_from((None, None, "int", "twin")),  # the first product's stranger
            st.sampled_from((None, -1, 0, 1) if rank <= 6 else (None,)),
            st.sampled_from((False, False, True)),  # cancelled
            st.sampled_from(("dot", "*")),  # "*" also forms each product alone
        ),
        min_size=2,
        max_size=5,
    ))
    lowered = bool(rank) and draw(st.sampled_from((False, False, True)))
    return rank, lowered, right, unit, dots


def _oracle_dot(algebra, xs, ys, terms):
    """The dot's terms from ``grassmann_product``, or the message of the
    refusal the budget gives: a product's pairs, or the running sum's
    terms after a product."""
    limit, total = algebra.term_limit, {}
    for i, j, negative in terms:
        x, y = (GrassmannElem(algebra, {(): v}) if isinstance(v, int) else v for v in (xs[i], ys[j]))
        pairs = len(x.terms) * len(y.terms)
        if pairs > limit:
            return f"product would enumerate {pairs} term pairs, over the budget of {limit}"
        for key, coeff in grassmann_product(x, y).items():
            total[key] = total.get(key, 0) + (-coeff if negative else coeff)
            if not total[key]:
                del total[key]
        if len(total) > limit:
            return f"sum grew to {len(total)} terms, over the budget of {limit}"
    return total


def _checked_against_the_oracle(expected, run):
    try:
        result = run()
    except TermLimitError as refusal:
        assert str(refusal) == expected
    else:
        assert dict(result.terms) == expected
        assert all(result._terms.values())


@settings(max_examples=100, deadline=None)
@given(_shared_right_operands())
@example((0, False, {(): 2}, ((), 1), [([({(): 3}, False)], None, None, False, "*"),
                                       ([({(): -1}, True)], None, None, False, "dot")]))
@example((16, False, {(): 1, (1, 16): 2, (15,): -1}, ((1,), 1), [
    ([({(16,): 1, (): 2}, False)], None, None, False, "dot"),
    ([({(16,): 3, (2,): 1}, False)], None, None, False, "*"),
]))
# rank 0 at 0, 1 and 2 pairs, with strangers
@example((0, False, {(): 2}, ((), -1), [([({(): 3}, False)], "int", -1, False, "dot"),
                                        ([({(): 3}, True)], "twin", 0, True, "*"),
                                        ([({(): 2}, False)], None, 1, False, "dot")]))
# rank 16 at 2^16 pairs, the pads' products vanishing, then cancelled whole
@example((16, False, {(2,): 1, (3, 16): -2}, ((1,), 2), [
    ([({(16,): 1, (1, 2): 3}, False)], None, 0, False, "dot"),
    ([({(4,): 2}, True)], "twin", 0, True, "dot"),
]))
# a budget of 2^rank - 1: a product refused over it, a sum grown past it
@example((2, True, {(1,): 1, (2,): 1}, ((), 1), [([({(): 1, (2,): 1}, False)], None, None, False, "dot"),
                                                 ([({(1, 2): 1}, False), ({(): 1}, False)], None, 1, False, "*")]))
@example((1, True, {(): 1}, ((), 1), [([({(): 1}, False), ({(1,): 1}, False)], None, None, False, "dot"),
                                      ([({(1,): 2}, False)], "int", None, True, "*")]))
def test_products_through_a_reused_right_operand_match_the_oracle(case):
    rank, lowered, right, (unit_subset, unit_coeff), dots = case
    algebra, twin = GrassmannAlgebra(rank), GrassmannAlgebra(rank)
    size = 1 << rank
    if lowered:
        algebra.term_limit = twin.term_limit = size - 1
    y, twin_y = GrassmannElem(algebra, right), GrassmannElem(twin, right)
    unit = GrassmannElem(algebra, {unit_subset: unit_coeff})
    for products, stranger, aim, cancelled, route in dots:
        xs = [GrassmannElem(algebra, left) for left, _ in products]
        ys = [y] * len(products)
        if stranger == "int":
            xs[0] = sum(products[0][0].values())
        elif stranger == "twin":
            ys[0] = twin_y
        terms = [(k, k, negative) for k, (_, negative) in enumerate(products)]
        if aim is not None:
            # pads of odd masks (rank 0: the mask 0) times the one-term
            # unit bring the pairs to 2^rank + aim
            need = size + aim - sum(
                (bool(x) if isinstance(x, int) else len(x.terms)) * len(r.terms) for x, r in zip(xs, ys)
            )
            masks = range(1, size, 2) if rank else range(1)
            while need > 0:
                pad = masks[:need]
                xs.append(GrassmannElem(algebra, {mask: mask % 3 + 1 for mask in pad}))
                ys.append(unit)
                terms.append((len(xs) - 1, len(ys) - 1, False))
                need -= len(pad)
        if cancelled:
            terms += [(i, j, not negative) for i, j, negative in terms]
        if route == "*":
            for i, j, _ in terms:
                x, r = xs[i], ys[j]
                _checked_against_the_oracle(_oracle_dot(algebra, [x], [r], [(0, 0, False)]), lambda: x * r)
        expected = _oracle_dot(algebra, xs, ys, terms)
        _checked_against_the_oracle(expected, lambda: algebra.dot(xs, ys, terms))
        if cancelled and not isinstance(expected, str):
            assert expected == {}
    for operand in (y, twin_y, unit):
        if operand._view is not None:
            terms, tables = operand._view
            assert all(
                table == [term for term in terms if not mask & term[0]] for mask, table in tables.items()
            )


def test_overlapping_subsets_multiply_to_zero(rank4):
    v1, v2 = rank4.gen(1), rank4.gen(2)
    assert ((v1 * v2) * (v2)).is_zero()


def test_a_right_operand_of_an_equal_algebra_keeps_its_view():
    # * runs the kernel on it as on an operand of its own algebra, so its
    # second product builds tables in its own view
    x = GrassmannElem(GrassmannAlgebra(3), {(1,): 2, (2,): -1})
    y = GrassmannElem(GrassmannAlgebra(3), {(): 1, (3,): 3, (1, 3): 1})
    for _ in range(2):
        assert dict((x * y).terms) == grassmann_product(x, y)
    assert set(y._view[1]) == {0b001, 0b010}


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
