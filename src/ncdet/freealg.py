"""Free associative polynomial ring over the integers on named generators.

A polynomial is a sparse table from words to nonzero integer
coefficients.  Words concatenate under multiplication and never commute, so
``a*b`` and ``b*a`` are distinct monomials.  The canonical term order is
degree-then-lexicographic by generator id, which fixes the text rendering
and hence structural equality.

A word is stored packed in one int: a leading 1 bit, then b bits per letter
from first to last, with b = max(1, (g-1).bit_length()) for g generators;
the empty word is 1.  Integer order on packed words is the canonical order,
and the product of words u and v is ``u << s | low``, where s is v's bit
length minus one and low is v without its leading bit.  The public API
(``FreePoly(algebra, {word: coeff})`` and ``terms``) speaks tuples of
generator ids; ``FreeAlgebra._encode`` and ``_decode`` convert.
Rendering refuses, with TermLimitError, an element whose text would write
more letters than the algebra's ``term_limit``.

The module also decides membership in the additive commutator subgroup
[R,R]: in the free algebra the quotient R/[R,R] has the cyclic-rotation
classes of words as a basis, so an element lies in [R,R] exactly when its
coefficients sum to zero over every cyclic class (and the constant term
vanishes).
"""

from __future__ import annotations

import operator
import random
import re
from types import MappingProxyType
from typing import Mapping, Sequence

from .rings import Ring, SparseElement, SparseRing, TermLimitError

# the expression tokenizer's identifier: a generator renders as its name, so
# only a name it reads as one token parses back
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class FreePoly(SparseElement):
    """Immutable sparse noncommutative polynomial with exact integer coefficients."""

    __slots__ = ()

    _UNIT = 1
    _MISMATCH = "operands live in free algebras with different generators"

    def __init__(self, algebra: FreeAlgebra, terms: Mapping[tuple[int, ...], int]):
        g = len(algebra.names)
        encode = algebra._encode
        clean: dict[int, int] = {}
        for word, coeff in terms.items():
            word = tuple(word)
            if any(not isinstance(i, int) or not 0 <= i < g for i in word):
                raise ValueError(f"word {word!r} uses unknown generator ids")
            coeff = operator.index(coeff)
            if coeff:
                clean[encode(word)] = coeff
        self.ring = algebra
        self._terms = clean
        self._view = None

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Terms keyed by words as tuples of generator ids."""
        decode = self.ring._decode
        return MappingProxyType({decode(w): c for w, c in self._terms.items()})

    def _key_text(self, word: int) -> str:
        names = self.ring.names
        return "*".join([names[i] for i in self.ring._decode(word)])

    def degree(self) -> int:
        """Maximum word length; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        # the largest packed word is a longest one
        return (max(self._terms).bit_length() - 1) // self.ring._bits

    # bench/tracer.py wraps only a class's own attributes
    __add__ = __radd__ = SparseElement.__add__
    __mul__ = SparseElement.__mul__

    def __str__(self) -> str:
        # refuse text too large to build: a word of L letters has b*L bits
        # after its leading 1
        ring, terms = self.ring, self._terms
        letters = (sum(map(int.bit_length, terms)) - len(terms)) // ring._bits
        if letters > ring.term_limit:
            raise TermLimitError(
                f"text would write {letters} letters, over the budget of {ring.term_limit}"
            )
        return SparseElement.__str__(self)

    def _mul_into(self, other: FreePoly, out: dict[int, int], sign: int) -> dict[int, int]:
        pairs = len(self._terms) * len(other._terms)
        if pairs > self.ring.term_limit:
            raise TermLimitError.pairs(pairs, self.ring.term_limit)
        view = other._view
        if view is None:
            view = other._view = _right_view(other._terms)
        left = self._terms
        # a membership test per pair calls nothing: a new word is stored
        # at once, and only a word already in out is read back and summed
        for shift, group in view:
            if len(group) == 1:
                # one word, as in every generic sweep entry: no inner loop
                ((low, c2),) = group
                c2 *= sign
                for w1, c1 in left.items():
                    word = w1 << shift | low
                    if word in out:
                        new = out[word] + c1 * c2
                        if new:
                            out[word] = new
                        else:
                            del out[word]
                    else:
                        out[word] = c1 * c2
                continue
            for w1, c1 in left.items():
                c1 *= sign
                high = w1 << shift
                for low, c2 in group:
                    word = high | low
                    if word in out:
                        new = out[word] + c1 * c2
                        if new:
                            out[word] = new
                        else:
                            del out[word]
                    else:
                        out[word] = c1 * c2
        return out


def _right_view(terms: dict[int, int]) -> tuple[tuple[int, list[tuple[int, int]]], ...]:
    # the words grouped by length: per group, the bit count a left word
    # shifts by and (letters without the leading bit, coefficient) per
    # word; returned whole, so a product on another thread never reads a
    # view that is still being filled
    groups: dict[int, list[tuple[int, int]]] = {}
    for word, coeff in terms.items():
        shift = word.bit_length() - 1
        groups.setdefault(shift, []).append((word ^ 1 << shift, coeff))
    return tuple(groups.items())


class FreeAlgebra(SparseRing):
    """Free associative algebra over the integers on named noncommuting generators."""

    element_type = FreePoly

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name in names:
            if not isinstance(name, str) or not _NAME.fullmatch(name):
                raise ValueError(f"invalid generator name {name!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(self.names)}
        # bits per letter of a packed word
        self._bits = max(1, (len(self.names) - 1).bit_length())

    def _encode(self, word: Sequence[int]) -> int:
        """The packed int of a word of generator ids."""
        bits = self._bits
        key = 1
        for letter in word:
            key = key << bits | letter
        return key

    def _decode(self, key: int) -> tuple[int, ...]:
        """The word of generator ids a packed int holds."""
        bits = self._bits
        mask = (1 << bits) - 1
        letters = []
        while key > 1:
            letters.append(key & mask)
            key >>= bits
        letters.reverse()
        return tuple(letters)

    def gen(self, name: str) -> FreePoly:
        if name not in self._index:
            raise KeyError(f"unknown generator {name!r}")
        return FreePoly._raw(self, {self._encode((self._index[name],)): 1})

    def gens(self) -> tuple[FreePoly, ...]:
        return tuple(self.gen(name) for name in self.names)

    def random_element(self, rng: random.Random, max_degree: int = 3, max_terms: int = 3) -> FreePoly:
        """Random element of up to max_terms words, coefficients in -4..4."""
        terms: dict[tuple[int, ...], int] = {}
        g = len(self.names)
        for _ in range(rng.randint(1, max_terms)):
            degree = rng.randint(0, max_degree)
            word = tuple(rng.randrange(g) for _ in range(degree)) if g else ()
            coeff = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
            terms[word] = terms.get(word, 0) + coeff
        return FreePoly(self, terms)

    def _identity(self) -> tuple:
        return self.names

    def named_gens(self) -> dict:
        return {name: self.gen(name) for name in self.names}

    def __repr__(self) -> str:
        return f"FreeAlgebra({list(self.names)!r})"


def in_commutator_span(p: FreePoly) -> bool:
    """Decide whether p lies in the additive subgroup generated by all uv - vu.

    Uses the cyclic-word criterion: group the words of p into cyclic-rotation
    equivalence classes and demand a zero coefficient sum in every class.
    The constant term must vanish (the empty word is alone in its class).
    """
    bits = p.ring._bits
    sums: dict[int, int] = {}
    for word, coeff in p._terms.items():
        if word == 1:
            return False
        # rotate the letters below the leading bit, a letter at a time
        size = word.bit_length() - 1
        top = 1 << size
        body = word ^ top
        rep = body
        for shift in range(bits, size, bits):
            rotated = (body << shift | body >> (size - shift)) & (top - 1)
            if rotated < rep:
                rep = rotated
        rep |= top
        sums[rep] = sums.get(rep, 0) + coeff
    return all(total == 0 for total in sums.values())


def specialize(p: FreePoly, assignment: Mapping[str, object], ring: Ring):
    """Image of p under the ring map sending each named generator to its value.

    The assignment must cover every generator occurring in p; the map sends
    1 to ring.one and integer coefficients to central scalars of the target.
    """
    images: dict[int, object] = {}
    names = p.ring.names
    decode = p.ring._decode
    coeffs, values = [], []
    for word, coeff in p._terms.items():
        value = ring.one
        for letter in decode(word):
            if letter not in images:
                name = names[letter]
                if name not in assignment:
                    raise ValueError(f"no assignment for generator {name!r}")
                images[letter] = assignment[name]
            value = value * images[letter]
        coeffs.append(ring.from_int(coeff))
        values.append(value)
    return ring.dot(coeffs, values, [(i, i, False) for i in range(len(values))])
