"""Free associative polynomial ring over the integers on named generators.

A polynomial is a sparse table from words (tuples of generator ids) to
nonzero integer coefficients.  Words concatenate under multiplication and
never commute, so ``a*b`` and ``b*a`` are distinct monomials.  The canonical
term order is degree-then-lexicographic by generator id, which fixes the
text rendering and hence structural equality.

The module also decides membership in the additive commutator subgroup
[R,R]: in the free algebra the quotient R/[R,R] has the cyclic-rotation
classes of words as a basis, so an element lies in [R,R] exactly when its
coefficients sum to zero over every cyclic class (and the constant term
vanishes).
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Mapping, Sequence

from .rings import Ring, SparseElement, SparseRing, TermLimitError

DEFAULT_TERM_LIMIT = 10_000_000


class FreePoly(SparseElement):
    """Immutable sparse noncommutative polynomial with exact integer coefficients."""

    __slots__ = ()

    _UNIT = ()
    _MISMATCH = "operands live in free algebras with different generators"

    def __init__(self, algebra: FreeAlgebra, terms: Mapping[tuple[int, ...], int]):
        g = len(algebra.names)
        clean: dict[tuple[int, ...], int] = {}
        for word, coeff in terms.items():
            word = tuple(word)
            if any(not isinstance(i, int) or not 0 <= i < g for i in word):
                raise ValueError(f"word {word!r} uses unknown generator ids")
            coeff = int(coeff)
            if coeff:
                clean[word] = coeff
        self.algebra = algebra
        self._terms = clean

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(self._terms)

    @staticmethod
    def _order(word: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        # degree, then lexicographic by generator id
        return (len(word), word)

    def _key_text(self, word: tuple[int, ...]) -> str:
        names = self.algebra.names
        return "*".join(names[i] for i in word)

    def degree(self) -> int:
        """Maximum word length; -1 for the zero polynomial."""
        return max((len(w) for w in self._terms), default=-1)

    def constant_term(self) -> int:
        return self._terms.get((), 0)

    # bench/tracer.py wraps only a class's own attributes
    __add__ = __radd__ = SparseElement.__add__
    __str__ = SparseElement.__str__

    def __mul__(self, other) -> FreePoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        limit = self.algebra.term_limit
        if len(self._terms) * len(other._terms) > limit:
            raise TermLimitError(
                f"product would enumerate {len(self._terms) * len(other._terms)} "
                f"term pairs, over the budget of {limit}"
            )
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 + w2
                new = get(word, 0) + c1 * c2
                if new:
                    out[word] = new
                else:
                    del out[word]
        return FreePoly._raw(self.algebra, out)


class FreeAlgebra(SparseRing):
    """Free associative algebra over the integers on named noncommuting generators."""

    element_type = FreePoly

    def __init__(self, names: Sequence[str], term_limit: int = DEFAULT_TERM_LIMIT):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"invalid generator name {name!r}")
        self.names = names
        self.term_limit = term_limit
        self._index = {name: i for i, name in enumerate(names)}

    def gen(self, name: str) -> FreePoly:
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        return FreePoly._raw(self, {(self._index[name],): 1})

    def gens(self) -> tuple[FreePoly, ...]:
        return tuple(self.gen(name) for name in self.names)

    def monomial(self, word: Sequence[int], coeff: int = 1) -> FreePoly:
        return FreePoly(self, {tuple(word): coeff})

    def random_element(
        self,
        rng: random.Random,
        max_degree: int = 3,
        max_terms: int = 3,
        coeff_bound: int = 4,
    ) -> FreePoly:
        terms: dict[tuple[int, ...], int] = {}
        g = len(self.names)
        for _ in range(rng.randint(1, max_terms)):
            degree = rng.randint(0, max_degree)
            word = tuple(rng.randrange(g) for _ in range(degree)) if g else ()
            coeff = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
            terms[word] = terms.get(word, 0) + coeff
        return FreePoly(self, terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeAlgebra) and self.names == other.names

    def __hash__(self) -> int:
        return hash(("FreeAlgebra", self.names))

    def __repr__(self) -> str:
        return f"FreeAlgebra({list(self.names)!r})"


def in_commutator_span(p: FreePoly) -> bool:
    """Decide whether p lies in the additive subgroup generated by all uv - vu.

    Uses the cyclic-word criterion: group the words of p into cyclic-rotation
    equivalence classes and demand a zero coefficient sum in every class.
    The constant term must vanish (the empty word is alone in its class).
    """
    sums: dict[tuple[int, ...], int] = {}
    for word, coeff in p.terms.items():
        if not word:
            if coeff:
                return False
            continue
        rep = min(word[i:] + word[:i] for i in range(len(word)))
        sums[rep] = sums.get(rep, 0) + coeff
    return all(total == 0 for total in sums.values())


def specialize(p: FreePoly, assignment: Mapping[str, object], ring: Ring):
    """Image of p under the ring map sending each named generator to its value.

    The assignment must cover every generator occurring in p; the map sends
    1 to ring.one and integer coefficients to central scalars of the target.
    """
    images: dict[int, object] = {}
    names = p.algebra.names
    total = ring.accumulator()
    for word, coeff in p.terms.items():
        value = ring.one
        for letter in word:
            if letter not in images:
                name = names[letter]
                if name not in assignment:
                    raise ValueError(f"no assignment for generator {name!r}")
                images[letter] = assignment[name]
            value = value * images[letter]
        total += ring.from_int(coeff) * value
    return ring.total(total)
