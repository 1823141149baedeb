import os
import random
import sys
import threading

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
from oracles import dense_view_holds, grassmann_product, rows_hold

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
    # the first product through y builds its dense view and the algebra's
    # rows; the products after it walk them, calling nothing per left term
    # or pair
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
    assert y._view[1] is not None and dense_view_holds(y)
    assert rows_hold(algebra, range(64))


def test_products_of_fewer_than_2_rank_pairs_build_no_dense_view(rank4):
    # 2 x 2 and 1 + 2 x 2 term pairs, under the 16 masks of rank 4: the
    # right operands keep only their lists, and the algebra builds no rows
    v1, v2, v3, _ = rank4.gens()
    y = v2 + v1 * v3
    (v1 + v2) * y
    assert y._view[1] is None
    w = v3 - v1 * v2
    value = rank4.dot([v1, v2 + 1], [rank4.one, w], [(0, 0, False), (1, 1, True)])
    assert w._view[1] is None
    assert rank4._rows is None
    assert value == v1 - (v2 + 1) * (v3 - v1 * v2)


def test_the_rows_are_built_only_within_the_pair_budget():
    # the rows of rank 6 list 3^6 = 729 masks: under a budget of 728 the
    # algebra builds none and every left mask walks the whole list; at 729
    # the masks whose row is shorter than the list walk the row
    algebra = GrassmannAlgebra(6)
    y = GrassmannElem(algebra, {m: m % 3 - 1 or 2 for m in range(0, 64, 2)})
    for limit in (728, 729):
        algebra.term_limit = limit
        for mask in range(64):
            x = GrassmannElem(algebra, {mask: 3, 0: -1})
            assert dict((x * y).terms) == grassmann_product(x, y)
        assert y._view[1] is not None
        assert (algebra._rows is None) == (limit == 728)
    rows = {id(row): row for row in algebra._rows[0]}.values()
    assert sum(len(plus) + len(minus) for plus, minus in rows) == 729
    assert rows_hold(algebra, range(64))


def test_a_row_is_complete_when_published():
    # another thread multiplying in this algebra reads its rows the moment
    # they are set, and a right operand's dense view the moment it is in
    # the view, so the kernel must fill both first
    published = []

    class Watched(GrassmannAlgebra):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            if name == "_rows" and value is not None:
                published.append(rows_hold(self, range(1 << self.rank)))

    class WatchedElem(GrassmannElem):
        __slots__ = ()

        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            if name == "_view" and value is not None:
                published.append(dense_view_holds(self))

    for rank in (5, 9):
        algebra = Watched(rank)
        rng = random.Random(3)
        x, y = ({rng.randrange(1 << rank): rng.choice((-2, -1, 1, 2)) for _ in range(40)} for _ in range(2))
        x, y = GrassmannElem(algebra, x), WatchedElem(algebra, y)
        for _ in range(2):
            assert dict((x * y).terms) == grassmann_product(x, y)
        assert y._view[1] is not None and algebra._rows is not None
    assert len(published) == 4 and all(published)


@pytest.mark.parametrize("rank", [6, 9])
def test_threads_sharing_rows_and_views_form_the_products_one_thread_does(rank):
    # the rows and a right operand's dense view are built by whichever
    # thread needs them first and published whole; other threads may read
    # them the moment they appear
    rng = random.Random(rank)
    terms = [{rng.randrange(1 << rank): rng.choice((-2, -1, 1, 2)) for _ in range(40)} for _ in range(4)]
    alone = [GrassmannElem(GrassmannAlgebra(rank), t) for t in terms]
    expected = {(i, j): str(x * y) for i, x in enumerate(alone) for j, y in enumerate(alone)}
    algebra = GrassmannAlgebra(rank)
    shared = [GrassmannElem(algebra, t) for t in terms]
    results = []

    def work(seed):
        pairs = list(expected)
        random.Random(seed).shuffle(pairs)
        for i, j in pairs:
            results.append((i, j, str(shared[i] * shared[j])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * len(expected)
    assert all(text == expected[i, j] for i, j, text in results)
    assert algebra._rows is not None and all(x._view[1] is not None for x in shared)


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
    pool = [subset for products, *_ in dots for left, _ in products for subset in left]
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
    left_masks = {sum(1 << i - 1 for i in subset) for subset in pool}
    assert all(dense_view_holds(operand) for operand in (y, twin_y, unit))
    assert rows_hold(algebra, left_masks) and rows_hold(twin, left_masks)


def test_overlapping_subsets_multiply_to_zero(rank4):
    v1, v2 = rank4.gen(1), rank4.gen(2)
    assert ((v1 * v2) * (v2)).is_zero()


def test_a_right_operand_of_an_equal_algebra_keeps_its_view():
    # * runs the kernel on it as on an operand of its own algebra: 3 x 3
    # term pairs pass the 8 masks of rank 3, so the first product builds
    # its dense view, and the left operand's algebra builds the rows
    x = GrassmannElem(GrassmannAlgebra(3), {(1,): 2, (2,): -1, (1, 2): 1})
    y = GrassmannElem(GrassmannAlgebra(3), {(): 1, (3,): 3, (1, 3): 1})
    for _ in range(2):
        assert dict((x * y).terms) == grassmann_product(x, y)
    assert y._view[1] is not None and dense_view_holds(y)
    assert y.ring._rows is None and rows_hold(x.ring, range(8))


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


def test_element_constructor_refuses_a_negative_mask(rank4):
    # a negative int has no subset; a dense view indexed by it would read
    # a slot from the end of the list
    for mask in (-1, -16, -(1 << 20)):
        with pytest.raises(ValueError, match=f"subset mask {mask} is negative"):
            GrassmannElem(rank4, {mask: 1})
    with pytest.raises(ValueError, match="beyond the algebra rank"):
        GrassmannElem(rank4, {16: 1})
    assert GrassmannElem(rank4, {0b1010: 2}) == 2 * (rank4.gen(2) * rank4.gen(4))


_COEFFS = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def _row_switch_cases(draw):
    # a right operand of rank 0..8 and two products through it, each by *
    # (a dict sum) or by dot (a list sum from 2^rank term pairs on, a dict
    # sum under it), a dot's product added or subtracted.  Each left
    # operand aims at 2^rank - 1, 2^rank or 4 * 2^rank term pairs, either
    # side of the dense view's switch, and its masks, of every size, fall
    # on either side of the row/walk switch (a row of 2^(rank - |m1|)
    # masks against the right operand's terms)
    rank = draw(st.integers(0, 8))
    size = 1 << rank
    masks = st.integers(0, size - 1)
    right = draw(st.dictionaries(masks, _COEFFS, min_size=1, max_size=min(size, 24)))
    products = []
    for _ in range(2):
        aim = draw(st.sampled_from((size - 1, size, 4 * size)))
        count = min(size, max(1, -(-aim // len(right))))
        left = dict(draw(st.lists(st.tuples(masks, _COEFFS), min_size=count, max_size=count)))
        products.append((left, draw(st.sampled_from(("*", "dot"))), draw(st.booleans())))
    return rank, right, products


@settings(max_examples=150, deadline=None)
@given(_row_switch_cases())
@example((0, {0: 2}, [({0: 3}, "*", False), ({0: -1}, "dot", True)]))
# rank 3: the first product of 8 term pairs builds the dense view and the
# rows; the second, of 2 pairs, walks a row into a dict
@example((3, {0: 1, 0b100: 2, 0b010: -1, 0b110: 3}, [
    ({0: 1, 0b001: 2}, "dot", True),
    ({0b011: -2}, "*", False),
]))
def test_products_on_either_side_of_the_row_switch_match_the_oracle(case):
    rank, right, products = case
    algebra = GrassmannAlgebra(rank)
    y = GrassmannElem(algebra, right)
    for left, route, negative in products:
        x = GrassmannElem(algebra, left)
        expected = grassmann_product(x, y)
        if route == "*":
            result = x * y
        else:
            result = algebra.dot([x], [y], [(0, 0, negative)])
            if negative:
                expected = {key: -coeff for key, coeff in expected.items()}
        assert dict(result.terms) == expected
        assert all(result._terms.values())
    assert dense_view_holds(y)
    assert rows_hold(algebra, range(1 << rank))


def _chunked_product(x, y):
    """x * y as the sum of the products of slices of x by a copy of y with
    no dense view, each of fewer than 2^rank term pairs, so each walks the
    right operand's list."""
    algebra, terms = x.ring, list(x._terms.items())
    copy = GrassmannElem(algebra, y._terms)
    step = ((1 << algebra.rank) - 1) // len(y.terms)
    products = [GrassmannElem(algebra, dict(terms[k:k + step])) * copy for k in range(0, len(terms), step)]
    assert copy._view[1] is None
    return algebra.sum(products)


@pytest.mark.parametrize("rank", [9, 10, 12, 16])
def test_rows_above_rank_8_walk_the_right_operand_block_by_block(rank):
    # above rank 8 a row is a high row times a low row and the dense view
    # is blocks of 2^8 coefficients; the right operand never sets the top
    # generator, so every block holding it is None.  Each product, by *
    # and by dot, either sign, equals the one the list walk builds
    rng = random.Random(rank)
    algebra, size = GrassmannAlgebra(rank), 1 << rank
    right = 48 if rank < 16 else 256
    y = GrassmannElem(algebra, {rng.randrange(size >> 1): rng.choice((-2, -1, 1, 2)) for _ in range(right)})
    x = GrassmannElem(algebra, {rng.randrange(size): rng.choice((-2, -1, 1, 2)) for _ in range(size // right + 8)})
    assert len(x.terms) * len(y.terms) >= size
    expected = _chunked_product(x, y)
    if rank == 9:
        assert dict(expected.terms) == grassmann_product(x, y)
    assert x * y == expected
    assert y._view[1][-1] is None and algebra._rows[1] is not None
    assert algebra.dot([x, x], [y, y], [(0, 0, True), (1, 1, True)]) == -2 * expected
    assert x * y == expected
    shorter = [m for m in x._terms if 1 << rank - m.bit_count() < len(y.terms)]
    assert shorter and len(shorter) < len(x.terms)
    assert rows_hold(algebra, shorter[:20])
    assert dense_view_holds(y)


def test_a_few_right_terms_at_rank_16_build_no_dense_view_and_rows_keep_to_the_budget():
    # 1,000 x 3 term pairs are under 2^16: no list of 2^16 slots, no rows
    algebra = GrassmannAlgebra(16)
    rng = random.Random(16)
    x = GrassmannElem(algebra, {rng.randrange(1 << 16): 1 for _ in range(1000)})
    y = GrassmannElem(algebra, {(1,): 2, (5, 16): -1, (): 3})
    assert dict((x * y).terms) == grassmann_product(x, y)
    assert y._view[1] is None and algebra._rows is None
    # the rows of rank 12 list 2 * 3^8 low and 3^4 high masks, 13,203: a
    # budget one under them builds none, so every left mask walks the list
    algebra = GrassmannAlgebra(12)
    x = GrassmannElem(algebra, {rng.randrange(1 << 12): 1 for _ in range(100)})
    y = GrassmannElem(algebra, {rng.randrange(1 << 12): -1 for _ in range(100)})
    expected = _chunked_product(x, y)
    for limit in (13_202, 13_203):
        algebra.term_limit = limit
        assert x * y == expected
        assert (algebra._rows is None) == (limit == 13_202)
    by_mask, highs = algebra._rows
    rows = {id(row): row for row in (*by_mask, *highs)}.values()
    assert sum(len(plus) + len(minus) for plus, minus in rows) == 13_203


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
