"""Finitely generated exterior algebra over the integers, Z2-graded.

Generators v1..vm anticommute (vi*vj = -vj*vi, so vi*vi = 0); a basis
element is a strictly increasing product of generators, stored internally
as a bitmask.  The even/odd grading by subset size makes this the standard
concrete Lie-nilpotent ring of index 2: [[x, y], z] = 0 holds identically
(``verify.lie_nilpotency_check`` tests it on seeded draws).

Two basis monomials that share a generator multiply to zero; otherwise
their product is the union, signed by the parity of the generator pairs
out of order.  The product reads that parity from one bit count per term
pair, against a mask computed once per right-hand term whose bit i is the
parity of that term's generators below v(i+1).  The right operand keeps
its view (``SparseElement._view``): the list of (mask, coefficient,
parity mask) per term, and a dict from each left mask it has met to the
entries of that list disjoint from it.  The first product through an
operand walks the whole list and skips overlapping pairs; every later one
walks, per left term, only the table of its mask, built on the mask's
first visit, so it visits no pair that vanishes.  A table holds the
list's own tuples, and an operand builds no more tables once they would
hold more than ``term_limit`` references; a left mask without a table
walks the whole list.

``GrassmannAlgebra.dot`` first counts the term pairs its products
enumerate, refusing a product over the budget before any sum exists.
When 2^rank is no larger than that count, nor than ``term_limit``, every
product adds into one list of 2^rank ints, with no lookup or zero test
per pair, and the result is built once from the nonzero slots; otherwise
the dot is ``SparseRing.dot``, whose dict the kernel keeps free of zeros.
On a grassmann_trials round (seed 3) 1,378 of 2,910 dots take the list,
and they hold 1,562,365 of its 1,593,280 term pairs (98%).  ``*`` is a
one-product dot from 2^rank term pairs on; a smaller product runs the
kernel on a fresh dict, as ``SparseElement``'s ``*`` does.  As in the
free algebra, a product of more than ``term_limit`` term pairs
(overlapping ones included) raises TermLimitError.
"""

from __future__ import annotations

import operator
from itertools import compress
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .rings import SparseElement, SparseRing, TermLimitError

if TYPE_CHECKING:
    import random

MAX_RANK = 16


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _parity_below(mask: int) -> int:
    # bit i of the result is the parity of the set bits of mask below bit i:
    # a shift-xor prefix scan of mask << 1, whose shifts 1, 2, 4 and 8 reach
    # back 16 bits, enough for MAX_RANK
    below = mask << 1
    below ^= below << 1
    below ^= below << 2
    below ^= below << 4
    below ^= below << 8
    return below


class GrassmannElem(SparseElement):
    """Immutable exterior-algebra element: sparse table subset -> coefficient."""

    __slots__ = ()

    _UNIT = 0
    _MISMATCH = "operands live in exterior algebras of different rank"

    def __init__(self, algebra: GrassmannAlgebra, terms: Mapping):
        clean: dict[int, int] = {}
        for key, coeff in terms.items():
            if isinstance(key, int):
                mask = key
            else:
                indices = tuple(key)
                if list(indices) != sorted(set(indices)):
                    raise ValueError(f"subset {indices!r} must be strictly increasing")
                mask = 0
                for i in indices:
                    if not 1 <= i <= algebra.rank:
                        raise ValueError(f"generator index {i} out of range 1..{algebra.rank}")
                    mask |= 1 << (i - 1)
            if mask >> algebra.rank:
                raise ValueError("subset uses generators beyond the algebra rank")
            coeff = operator.index(coeff)
            if coeff:
                clean[mask] = clean.get(mask, 0) + coeff
        self.ring = algebra
        self._terms = {m: c for m, c in clean.items() if c}
        self._view = None

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Terms keyed by ascending 1-based generator indices."""
        return MappingProxyType({_mask_to_indices(m): c for m, c in self._terms.items()})

    @staticmethod
    def _order(mask: int) -> tuple[int, tuple[int, ...]]:
        # subset size, then lexicographic by index
        return (mask.bit_count(), _mask_to_indices(mask))

    @staticmethod
    def _key_text(mask: int) -> str:
        return "*".join(f"v{i}" for i in _mask_to_indices(mask))

    # bench/tracer.py wraps only a class's own attributes
    __add__ = __radd__ = SparseElement.__add__
    __str__ = SparseElement.__str__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self._terms) * len(other._terms) < 1 << self.ring.rank:
            return self._raw(self.ring, self._mul_into(other, {}, 1))
        # an operand of an equal, distinct algebra takes SparseRing.dot,
        # which runs the kernel on it as on one of this algebra's own
        return self.ring.dot((self,), (other,), ((0, 0, False),))

    def _mul_into(self, other: GrassmannElem, out, sign: int):
        # out is the dot's sum: a list of 2^rank ints, added to in place, or
        # a dict kept free of zeros
        pairs = len(self._terms) * len(other._terms)
        limit = self.ring.term_limit
        if pairs > limit:
            raise TermLimitError.pairs(pairs, limit)
        # sorting m1|m2 moves each generator of m2 past every larger one
        # of m1, so the sign is the parity of the bits of m1 that lie above
        # an odd number of bits of m2; one scan per right-hand term, kept
        # with the element, reads it
        view = other._view
        if view is None:
            # the first product builds no tables: an operand used once,
            # such as a trace entry, would never read them
            right = [(m2, c2, _parity_below(m2)) for m2, c2 in other._terms.items()]
            tables = {}
            other._view = (right, tables)
        else:
            right, tables = view
        # a reused operand builds the table of each left mask it has not
        # met, as long as its tables then hold at most term_limit
        # references, each table counted at the list's full length; a left
        # mask without a table walks the whole list
        lookup = tables.get
        get = None if type(out) is list else out.get
        for m1, c1 in self._terms.items():
            c1 *= sign
            table = lookup(m1)
            if table is None:
                table = right
                if view is not None and len(tables) * len(right) + pairs <= limit:
                    # published only once filled: a product on another
                    # thread reads a table the moment it is in the dict
                    # (two threads may fill the same mask; both lists are
                    # complete and equal)
                    table = []
                    for term in right:
                        if not m1 & term[0]:
                            table.append(term)
                    tables[m1] = table
            if get is None:
                for m2, c2, below in table:
                    if not m1 & m2:
                        if (m1 & below).bit_count() & 1:
                            out[m1 | m2] -= c1 * c2
                        else:
                            out[m1 | m2] += c1 * c2
                continue
            for m2, c2, below in table:
                if m1 & m2:  # only a walk of the whole list meets one
                    continue
                mask = m1 | m2
                if (m1 & below).bit_count() & 1:
                    new = get(mask, 0) - c1 * c2
                else:
                    new = get(mask, 0) + c1 * c2
                if new:
                    out[mask] = new
                else:
                    del out[mask]
        return out


class GrassmannAlgebra(SparseRing):
    """Exterior algebra on ``rank`` anticommuting generators over the integers."""

    element_type = GrassmannElem

    def __init__(self, rank: int):
        if not 0 <= rank <= MAX_RANK:
            raise ValueError(f"rank must be between 0 and {MAX_RANK}")
        self.rank = rank

    def gen(self, i: int) -> GrassmannElem:
        """The generator v_i (1-based index)."""
        if not 1 <= i <= self.rank:
            raise KeyError(f"generator index {i} out of range 1..{self.rank}")
        return GrassmannElem._raw(self, {1 << (i - 1): 1})

    def gens(self) -> tuple[GrassmannElem, ...]:
        return tuple(self.gen(i) for i in range(1, self.rank + 1))

    def random_element(
        self, rng: random.Random, max_terms: int = 3, parity: int | None = None
    ) -> GrassmannElem:
        """Random sparse element, coefficients in -4..4; parity 0/1 restricts
        to even/odd subsets."""
        if parity == 1 and self.rank == 0:
            return self.zero
        terms: dict[int, int] = {}
        for _ in range(rng.randint(1, max_terms)):
            mask = rng.randrange(1 << self.rank) if self.rank else 0
            while parity is not None and mask.bit_count() % 2 != parity:
                mask = rng.randrange(1 << self.rank)
            coeff = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
            terms[mask] = terms.get(mask, 0) + coeff
        return GrassmannElem._raw(self, {m: c for m, c in terms.items() if c})

    def dot(self, xs, ys, terms) -> GrassmannElem:
        """``SparseRing.dot``, except that a dot of this algebra's elements
        that enumerates at least 2^rank term pairs, with 2^rank within
        ``term_limit``, sums into one list of 2^rank ints."""
        limit, size = self.term_limit, 1 << self.rank
        if size <= limit:
            # the pass that counts the pairs refuses a product over the
            # budget, as the kernel would, before the list exists; no sum
            # of 2^rank <= term_limit masks grows over the budget
            pairs = 0
            for i, j, _ in terms:
                x, y = xs[i], ys[j]
                if not (type(x) is type(y) is GrassmannElem and x.ring is self and y.ring is self):
                    break
                product = len(x._terms) * len(y._terms)
                if product > limit:
                    raise TermLimitError.pairs(product, limit)
                pairs += product
            else:
                if size <= pairs:
                    out = [0] * size
                    for i, j, negative in terms:
                        xs[i]._mul_into(ys[j], out, -1 if negative else 1)
                    nonzero = compress(range(size), out)
                    return GrassmannElem._raw(self, {mask: out[mask] for mask in nonzero})
        return SparseRing.dot(self, xs, ys, terms)

    def _identity(self) -> tuple:
        return (self.rank,)

    def named_gens(self) -> dict:
        """v1..vm, named by the text they print as."""
        return {GrassmannElem._key_text(1 << i): self.gen(i + 1) for i in range(self.rank)}

    def __repr__(self) -> str:
        return f"GrassmannAlgebra(rank={self.rank})"


def graded_parts(x: GrassmannElem) -> tuple[GrassmannElem, GrassmannElem]:
    """Split x into (even, odd) components by subset-size parity."""
    even = {m: c for m, c in x._terms.items() if m.bit_count() % 2 == 0}
    odd = {m: c for m, c in x._terms.items() if m.bit_count() % 2 == 1}
    return GrassmannElem._raw(x.ring, even), GrassmannElem._raw(x.ring, odd)
