"""Finitely generated exterior algebra over the integers, Z2-graded.

Generators v1..vm anticommute (vi*vj = -vj*vi, so vi*vi = 0); a basis
element is a strictly increasing product of generators, stored internally
as a bitmask.  The even/odd grading by subset size makes this the standard
concrete Lie-nilpotent ring of index 2: [[x, y], z] = 0 holds identically
(``verify.lie_nilpotency_check`` tests it on seeded draws).

Two basis monomials that share a generator multiply to zero; otherwise
their product is the union, signed by the parity of the generator pairs
out of order.  Over all left masks only 3^rank of the 4^rank mask pairs
are disjoint, so a product visits the disjoint ones alone where it can.
The right operand keeps its view (``SparseElement._view``): the list of
(mask, coefficient, parity mask) per term, the parity mask's bit i being
the parity of the term's generators below v(i+1), and, from the first
product of at least 2^rank term pairs through it, a dense view: each
mask's coefficient in 2^rank slots, as blocks of 2^8 indexed by the
mask's high bits, a block no term reaches left None.  The algebra keeps
the row of each left mask m1: every mask disjoint from m1, split into
those whose product with m1 is positive and those where it is negative.
Per left term, a product whose right operand has a dense view walks the
row of m1 when it is shorter than the right operand's list, reading each
coefficient from the dense view; otherwise it walks the list, skips the
overlapping pairs and reads each sign from one bit count of m1 against
the parity mask.  Through rank 8 a row is two lists of masks.  Above it
the row of m1 is the high row of m1's high bits times the low row of its
low 8 bits, the low row keyed also by the parity of the high bits, which
lie above every low one; a walk reads the dense view block by block.  So
the rows list 3^rank masks through rank 8 and 2 * 3^8 + 3^(rank - 8)
above it (19,683 at rank 16), every one below 2^8, and the algebra builds
them all at once on its first product through a dense view, unless they
would list more than ``term_limit`` masks.

``GrassmannAlgebra.dot`` first counts the term pairs its products
enumerate, refusing a product over the budget before any sum exists.
When 2^rank is no larger than that count, nor than ``term_limit``, every
product adds into one list of 2^rank ints, with no lookup or zero test
per pair, and the result is built once from the nonzero slots; otherwise
the dot is ``SparseRing.dot``, whose dict the kernel keeps free of zeros.
On a grassmann_trials round (seed 3) 1,378 of 2,910 dots take the list,
and they hold 1,562,365 of its 1,593,280 term pairs (98%).  ``*`` runs
the kernel on a fresh dict at every size, as ``SparseElement``'s ``*``
does.  As in the free algebra, a product of more than ``term_limit`` term
pairs (overlapping ones included) raises TermLimitError.
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
# the bits of a mask's low part: above rank 8 a row is a high row times a
# low row (see the module docstring)
_LOW = MAX_RANK // 2


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
                if key < 0:
                    raise ValueError(f"subset mask {key} is negative")
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
    __mul__ = SparseElement.__mul__
    __str__ = SparseElement.__str__

    def _mul_into(self, other: GrassmannElem, out, sign: int):
        # out is the dot's sum: a list of 2^rank ints, added to in place, or
        # a dict kept free of zeros
        terms, algebra = self._terms, self.ring
        pairs = len(terms) * len(other._terms)
        limit = algebra.term_limit
        if pairs > limit:
            raise TermLimitError.pairs(pairs, limit)
        rank = algebra.rank
        low = min(rank, _LOW)
        # sorting m1|m2 moves each generator of m2 past every larger one
        # of m1, so the sign is the parity of the bits of m1 that lie above
        # an odd number of bits of m2; one scan per right-hand term, kept
        # with the element, reads it
        view = other._view
        if view is None:
            right = [(m2, c2, _parity_below(m2)) for m2, c2 in other._terms.items()]
            blocks = None
        else:
            right, blocks = view
        if blocks is None and 1 << rank <= pairs:
            # the dot's rule for a list sum: 2^rank slots cost no more than
            # the pairs this product enumerates.  They enter the view only
            # once filled, as a product on another thread may read it
            blocks = [None] * (1 << rank - low)
            for m2, c2 in other._terms.items():
                block = blocks[m2 >> low]
                if block is None:
                    block = blocks[m2 >> low] = [0] * (1 << low)
                block[m2 & (1 << low) - 1] = c2
            other._view = (right, blocks)
        elif view is None:
            other._view = (right, None)
        rows = None
        if blocks is not None:
            rows = algebra._rows or algebra._build_rows()
        if rows is not None:
            by_mask, highs = rows
        n = len(right)
        get = None if type(out) is list else out.get
        for m1, c1 in terms.items():
            c1 *= sign
            if rows is not None and 1 << rank - m1.bit_count() < n:
                # the row of m1 is shorter than the list: walk the row
                plus, minus = by_mask[m1]
                if highs is None:
                    # one block: the row is every mask disjoint from m1
                    block = blocks[0]
                    if get is None:
                        for m2 in plus:
                            c2 = block[m2]
                            if c2:
                                out[m1 | m2] += c1 * c2
                        for m2 in minus:
                            c2 = block[m2]
                            if c2:
                                out[m1 | m2] -= c1 * c2
                        continue
                    for part, c in ((plus, c1), (minus, -c1)):
                        for m2 in part:
                            c2 = block[m2]
                            if c2:
                                mask = m1 | m2
                                new = get(mask, 0) + c * c2
                                if new:
                                    out[mask] = new
                                else:
                                    del out[mask]
                    continue
                # the row is the high row of m1's high bits times its low
                # row, read block by block
                hplus, hminus = highs[m1 >> low]
                for high, c in ((hplus, c1), (hminus, -c1)):
                    for a in high:
                        block = blocks[a]
                        if block is None:
                            continue
                        base = m1 | a << low
                        if get is None:
                            for b in plus:
                                c2 = block[b]
                                if c2:
                                    out[base | b] += c * c2
                            for b in minus:
                                c2 = block[b]
                                if c2:
                                    out[base | b] -= c * c2
                            continue
                        # two loops, not a loop over the signs: this runs
                        # per block, not per left term
                        for b in plus:
                            c2 = block[b]
                            if c2:
                                mask = base | b
                                new = get(mask, 0) + c * c2
                                if new:
                                    out[mask] = new
                                else:
                                    del out[mask]
                        for b in minus:
                            c2 = block[b]
                            if c2:
                                mask = base | b
                                new = get(mask, 0) - c * c2
                                if new:
                                    out[mask] = new
                                else:
                                    del out[mask]
                continue
            if get is None:
                for m2, c2, below in right:
                    if not m1 & m2:
                        if (m1 & below).bit_count() & 1:
                            out[m1 | m2] -= c1 * c2
                        else:
                            out[m1 | m2] += c1 * c2
                continue
            for m2, c2, below in right:
                if m1 & m2:
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
        self._rows = None

    def _build_rows(self):
        """The rows of every left mask (see the module docstring), or None
        while they would list more than ``term_limit`` masks; kept once
        built.

        A row is built by doubling: adding a free bit to every mask of the
        row so far flips the sign exactly when an odd number of the left
        mask's bits lie above that bit.
        """
        low = min(self.rank, _LOW)
        high = self.rank - low
        parities = 2 if high else 1
        if parities * 3**low + (3**high if high else 0) > self.term_limit:
            return None
        built = []
        # the low rows, keyed by a left mask's low bits and one bit above
        # them for the parity of its high bits, then the high rows, keyed by
        # its high bits
        for count, bits in ((parities << low, low), (1 << high if high else 0, high)):
            for mask in range(count):
                plus, minus = [0], []
                odd = mask.bit_count() & 1
                for i in range(bits):
                    bit = 1 << i
                    if mask & bit:
                        odd ^= 1
                        continue
                    up = bit.__or__
                    grown = [*map(up, minus if odd else plus)]
                    minus += [*map(up, plus if odd else minus)]
                    plus += grown
                built.append((plus, minus))
        by_mask = []
        for h in range(1 << high):
            by_mask += built[1 << low : 2 << low] if h.bit_count() & 1 else built[: 1 << low]
        # published whole: a product on another thread reads the rows the
        # moment they are set (two threads may build them; both are equal)
        self._rows = rows = (by_mask, built[parities << low :] if high else None)
        return rows

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
