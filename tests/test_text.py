"""Canonical text of sparse elements and matrices against the renderer's
first path (``oracles.render_terms``), and the memory one large text takes."""

import hashlib
import tracemalloc
from itertools import chain, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from ncdet import FreeAlgebra, FreePoly, GrassmannAlgebra, GrassmannElem, Matrix, right_determinant
from ncdet.grassmann import MAX_RANK
from ncdet.matrices import generic_matrix
from ncdet.rings import _CHUNK
from oracles import render_terms

# ±1, which writes no coefficient, and magnitudes of one to thirty digits
COEFFS = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**30), 10**30))

# 1, 1, 4, 6 and 6 bits per letter
GENERATORS = [1, 2, 9, 36, 40]


def free_algebra(g: int) -> FreeAlgebra:
    return FreeAlgebra([f"x{i}" for i in range(g)])


def free_terms(g: int, max_terms: int = 12):
    # the empty word is the unit, and no terms is zero
    words = st.lists(st.integers(0, g - 1), max_size=9).map(tuple)
    return st.dictionaries(words, COEFFS, max_size=max_terms)


def exterior_terms(rank: int, max_terms: int = 12):
    return st.dictionaries(st.integers(0, (1 << rank) - 1), COEFFS, max_size=max_terms)


@pytest.mark.parametrize("g", GENERATORS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_free_text_matches_the_first_path(g, data):
    x = FreePoly(free_algebra(g), data.draw(free_terms(g)))
    assert str(x) == render_terms(x)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exterior_text_matches_the_first_path(data):
    rank = data.draw(st.integers(0, MAX_RANK))
    x = GrassmannElem(GrassmannAlgebra(rank), data.draw(exterior_terms(rank)))
    assert str(x) == render_terms(x)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_text_matches_the_first_path(data):
    n = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        g = data.draw(st.sampled_from(GENERATORS))
        ring, entries = free_algebra(g), free_terms(g, 6)
    else:
        rank = data.draw(st.integers(0, MAX_RANK))
        ring, entries = GrassmannAlgebra(rank), exterior_terms(rank, 6)
    rows = [[ring.element_type(ring, data.draw(entries)) for _ in range(n)] for _ in range(n)]
    expected = "\n".join("[" + ", ".join(map(render_terms, row)) + "]" for row in rows)
    assert str(Matrix(ring, rows)) == expected


def test_matrix_text_of_entries_from_other_rings():
    # word 2 is a in one algebra and b in the other, and mask 2 is v2: an
    # entry of a ring other than the matrix's keeps its own key texts
    ring = free_algebra(1)
    a = FreePoly(ring, {(0,): 1})
    b = FreePoly(FreeAlgebra(["b"]), {(0,): 1})
    v2 = GrassmannElem(GrassmannAlgebra(2), {2: 1})
    rows = [[a, b], [v2, 3 * a - 1]]
    expected = "\n".join("[" + ", ".join(map(render_terms, row)) + "]" for row in rows)
    assert expected == "[x0, b]\n[v2, -1 + 3*x0]"
    assert str(Matrix(ring, rows)) == expected


@pytest.mark.parametrize("size", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1])
@pytest.mark.parametrize("first", [1, -1, 7, -7])
def test_text_across_chunk_boundaries(size, first):
    # the unit, then words of one to five letters over 9 generators in
    # canonical order, so the split between a word's halves moves within
    # the text
    words = chain.from_iterable(product(range(9), repeat=k) for k in range(1, 6))
    terms = {(): first}
    terms.update((w, (-1) ** i * (i % 5 + 1)) for i, w in enumerate(islice(words, size - 1)))
    x = FreePoly(free_algebra(9), terms)
    assert str(x) == render_terms(x)


def test_exterior_text_of_every_subset_at_the_largest_rank():
    algebra = GrassmannAlgebra(MAX_RANK)
    x = GrassmannElem(algebra, {m: m % 7 - 3 for m in range(1 << MAX_RANK)})
    assert len(x._terms) > 2 * _CHUNK
    assert str(x) == render_terms(x)


def test_generic_rdet_2_text_is_pinned_and_peaks_under_three_times_its_length():
    # 62,208 terms, many chunks; a renderer that keeps a piece per term,
    # or the text of each whole word, until the end peaks past 3x
    _, A = generic_matrix(3)
    x = right_determinant(A, 2)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        text = str(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(x._terms) == 62_208
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9e2e21489e1d96b2a1341c9108626b1fb2d574e4b306e458770632ccb21e0523"
    )
    assert peak < 3 * len(text)
