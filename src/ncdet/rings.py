"""Ring contract shared by every coefficient domain in the package.

A ring here is a small descriptor object: it knows its ``zero`` and ``one``
elements, how to embed an integer as a central scalar, the generators an
expression may name (``named_gens``) and what tells two rings of its class
apart (``_identity``, from which ``Ring`` builds ``==`` and ``hash``); it
carries one capability flag, ``is_commutative``.  The elements themselves
are ordinary Python values that support ``+``, ``-``, ``*`` and ``==``; the
exact integer ring simply uses Python's built-in ``int``, which is
arbitrary precision, so all arithmetic in the package is exact.  A sum is
one ``sum`` call and a sum of products one ``dot`` call; ``dots`` makes
the sums of products over one pair of operand lists, one per terms list,
in one call: one per sweep level, matrix row and R[z] product.  Its
default calls ``dot`` per sum; the integers run every sum in one loop,
and their ``dot`` is a one-sum ``dots``.

The free and exterior algebras share one sparse core.  A ``SparseRing``
builds ``zero``, ``one``, ``from_int``, ``sum`` and ``dot`` from its
``element_type`` and ``term_limit``, the most term pairs one product and
the most terms one sum may reach (10M by default); in the free algebra it
also caps the letters one canonical text may write.  A ``SparseElement``
is a ``_terms`` dict from int keys to nonzero integer coefficients with
``_raw``, ``is_zero``, ``+`` and ``-`` (one signed fold, the loop
``SparseRing.sum`` runs too), unary ``-``, ``*``, ``==``, ``hash`` and
canonical text, which lists the keys in integer order unless a subclass
sets ``_order`` (a key's sort key).  A subclass supplies ``_UNIT`` (the
key of the identity), ``_MISMATCH`` (the message for operands of
different algebras), ``_key_text`` (a key's text, empty for the unit), key
validation in ``__init__`` and its product kernel ``_mul_into(other, out,
sign)``, which adds sign times the product into a sum ``out`` that its
caller owns and refuses, before it writes anything, a product of more
than ``term_limit`` term pairs.  ``*`` is that kernel run on a fresh sum,
and ``dot`` runs it for a whole sum of products on one sum, so no product
of a sum is built and then folded.  ``SparseRing.dot``'s sum is a dict
that every kernel keeps free of zeros; ``GrassmannAlgebra`` has its own
``dot``, which its ``*`` runs from 2^rank term pairs on, and whose sum is
one list of 2^rank ints when the products enumerate at least 2^rank term
pairs and 2^rank is within ``term_limit``.  The kernel reads its right
operand through ``_view``: the right-hand terms in the form the product
loop wants, computed on first use and kept, since an element is immutable
and a matrix entry is the right factor of many products; an
exterior-algebra view also keeps, per left mask, the right terms disjoint
from it, built from the second product on and at most ``term_limit``
references in all.
``==``, ``hash`` and the sums read ``_terms`` only.
``RingElement`` gives every element type ``_coerce`` (an operand of its
class from an equal ``ring``, or an int as ``ring.from_int``), ``repr``,
and binary and reflected ``-``, reflected ``*`` and ``**`` from
``_coerce``, ``+``, unary ``-`` and ``*``; ``CentralPoly`` and
``matrices.Matrix`` use it too, and ``Matrix`` keeps its own ``_coerce``,
``repr`` and binary ``-``, as ``SparseElement`` keeps its ``-``.

``Record`` is the base of the package's result and option records
(``CommutatorDefect``, ``MatrixDocument``, ``CheckResult`` and the rest):
plain frozen ``__slots__`` classes with field-wise equality, hash and
repr, built without the import-time cost of ``dataclasses``.

The module also holds what the algebras and the document parser share
without importing each other: ``_NAME``, the pattern of a generator name,
and ``_instance_of``, an ``isinstance`` test against a class of a module
that is not imported for it.

Elements are immutable and all operations are pure, so sharing values
between threads is safe.
"""

from __future__ import annotations

import operator
import sys
from abc import ABC, abstractmethod

# Python before 3.10.7 has no int-to-str digit limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
# the interpreter takes no nonzero digit limit under 640 digits
# (sys.int_info.str_digits_check_threshold), and an integer of at most this
# many bits (2,126) has no more digits than that, so IntegerRing skips the
# digit check for it; with no limit at all this is 0 (10**0 has one bit)
_UNCHECKED_BITS = (10 ** getattr(sys.int_info, "str_digits_check_threshold", 0)).bit_length() - 1

# a generator name, as the expression tokenizer reads one token: a free
# generator renders as its name, so only such a name parses back
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"


def _instance_of(x, home: str, name: str) -> bool:
    """isinstance(x, the class ``name`` of the package module ``home``),
    answered without importing that module: none of its instances exists
    before it is loaded."""
    module = sys.modules.get(f"{__package__}.{home}")
    return module is not None and isinstance(x, getattr(module, name))


class TermLimitError(RuntimeError):
    """A symbolic operation would exceed the configured term budget."""

    @classmethod
    def pairs(cls, pairs: int, limit: int) -> TermLimitError:
        return cls(f"product would enumerate {pairs} term pairs, over the budget of {limit}")

    @classmethod
    def terms(cls, terms: int, limit: int) -> TermLimitError:
        return cls(f"sum grew to {terms} terms, over the budget of {limit}")


class Record:
    """A plain record whose fields are its class's ``__slots__``, in order.

    It is built by position or keyword; ``_defaults`` holds the values of
    trailing fields left out, where a type (``list``, ``dict``) makes a
    fresh value for each record.  ``_validate`` runs once all fields are
    set.  Records compare equal field by field, and hash and print the same
    way, so a record with a list, dict or set field is unhashable.  A record
    is frozen: assigning to a field raises AttributeError, though a mutable
    field's value may still change in place.  No record class runs code
    generation at import.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        values = dict(zip(fields, args), **kwargs)
        for name in fields:
            if name in values:
                value = values[name]
            elif name in self._defaults:
                value = self._defaults[name]
                if isinstance(value, type):
                    value = value()
            else:
                raise TypeError(f"{type(self).__name__}() is missing the field {name}")
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ring(ABC):
    """Capability descriptor for a coefficient ring.

    Concrete rings provide ``zero``, ``one``, ``from_int`` and
    ``_identity``; ``named_gens`` defaults to no generators, every sum is
    one ``sum`` call, every sum of products one ``dot`` call and the sums
    of products over one pair of operand lists one ``dots`` call.  Two
    rings are equal when they are of one class with equal ``_identity()``,
    and hash alike.  Equality of elements is
    structural: two elements are equal exactly when their canonical
    renderings (``str``) coincide, which every element type guarantees by
    normalizing on construction.  A seeded random element is not part of
    the contract: the free and exterior algebras each draw theirs with
    keywords of their own.
    """

    is_commutative: bool = False

    @property
    @abstractmethod
    def zero(self):
        """Additive identity."""

    @property
    @abstractmethod
    def one(self):
        """Multiplicative identity."""

    @abstractmethod
    def from_int(self, k: int):
        """The central scalar k`1 (integer multiple of the identity)."""

    @abstractmethod
    def _identity(self) -> tuple:
        """What tells this ring apart from others of its class."""

    def __eq__(self, other) -> bool:
        return other is self or (
            other.__class__ is self.__class__ and other._identity() == self._identity()
        )

    def __hash__(self) -> int:
        return hash((self.__class__.__name__, self._identity()))

    def named_gens(self) -> dict:
        """The generators an expression may name, by name."""
        return {}

    def sum(self, plus, minus=()):
        """The sum of the elements in ``plus`` less the sum of those in
        ``minus``, each coerced or refused as ``+`` and ``-`` do.

        By default this is ``zero`` and ``+`` and ``-``, one new element per
        operand, which suits R[z].  The integers take the builtin ``sum``
        under one digit check.  The free and exterior algebras fold every
        operand into one dict, so a sum costs the total size of its
        operands instead of one copy of the running result per operand.
        """
        total = self.zero
        for x in plus:
            total = total + x
        for x in minus:
            total = total - x
        return total

    def dot(self, xs, ys, terms):
        """The sum over (i, j, negative) in ``terms`` of ``xs[i] * ys[j]``,
        less where ``negative`` is set, as one ``sum``.  ``terms`` is a
        sequence: the exterior algebra's ``dot`` reads it twice."""
        plus, minus = [], []
        for i, j, negative in terms:
            (minus if negative else plus).append(xs[i] * ys[j])
        return self.sum(plus, minus)

    def dots(self, xs, ys, plans) -> list:
        """``[dot(xs, ys, terms) for terms in plans]``: the sums of products
        that share one pair of operand lists, as one call, which the
        integers run in one loop."""
        dot = self.dot
        return [dot(xs, ys, terms) for terms in plans]


def _checked(acc: int) -> int:
    """An integer sum, refused once it has more digits than the interpreter
    will print (``sys.get_int_max_str_digits()``, where 0 means no limit).
    ``IntegerRing`` calls it only for a sum of more than ``_UNCHECKED_BITS``
    bits, so for a sum of at most 2,126 bits, under the least nonzero limit
    of 640 digits, the guard is one bit-length comparison."""
    limit = _max_str_digits()
    # over `limit` digits is over log2(10) * limit > 3.32 * limit bits
    if limit and acc.bit_length() > 3.32 * limit and abs(acc) >= 10**limit:
        raise TermLimitError(
            f"integer sum grew past {limit} digits, the most the interpreter prints"
        )
    return acc


class IntegerRing(Ring):
    """The ring of arbitrary-precision integers; elements are plain ints."""

    is_commutative = True

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, k: int) -> int:
        return operator.index(k)

    def _identity(self) -> tuple:
        return ()

    def sum(self, plus, minus=()) -> int:
        acc = sum(plus) - sum(minus) if minus else sum(plus)
        return _checked(acc) if acc.bit_length() > _UNCHECKED_BITS else acc

    def dot(self, xs, ys, terms) -> int:
        return self.dots(xs, ys, (terms,))[0]

    def dots(self, xs, ys, plans) -> list:
        sums, unchecked = [], _UNCHECKED_BITS
        for terms in plans:
            acc = 0
            for i, j, negative in terms:
                if negative:
                    acc -= xs[i] * ys[j]
                else:
                    acc += xs[i] * ys[j]
            sums.append(_checked(acc) if acc.bit_length() > unchecked else acc)
        return sums

    def __repr__(self) -> str:
        return "IntegerRing()"


class SparseRing(Ring):
    """A ring of ``element_type`` elements, summed under ``term_limit``."""

    element_type: type
    # the term budget: the most term pairs one product may enumerate, the
    # most terms one running sum may hold, and the most letters the text of
    # one free-algebra element may write; set it on an instance to change it
    # for one ring
    term_limit = 10_000_000

    @property
    def zero(self):
        return self.element_type._raw(self, {})

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        element = self.element_type
        k = operator.index(k)
        return element._raw(self, {element._UNIT: k} if k else {})

    def sum(self, plus, minus=()):
        out, element, limit = {}, self.element_type, self.term_limit
        for sign, operands in ((1, plus), (-1, minus)):
            for x in operands:
                if type(x) is not element or x.ring is not self:
                    x = _operand(self, x, "+")
                _fold(out, x._terms, sign)
                if len(out) > limit:
                    raise TermLimitError.terms(len(out), limit)
        return element._raw(self, out)

    def dot(self, xs, ys, terms):
        """``Ring.dot`` on one dict: each product of two elements of this
        ring (the right one may be of an equal ring) runs x's kernel into
        it, and the sum is refused once it holds more than ``term_limit``
        terms after a product.  Other operands take x * y and fold it,
        which coerces or refuses them as ``*`` and ``+`` do.
        ``GrassmannAlgebra.dot`` keeps this contract but sums into one list
        of 2^rank ints when its products enumerate at least that many term
        pairs."""
        out, element, limit = {}, self.element_type, self.term_limit
        for i, j, negative in terms:
            x, y = xs[i], ys[j]
            sign = -1 if negative else 1
            if type(x) is type(y) is element and x.ring is self and (
                y.ring is self or y.ring == self
            ):
                x._mul_into(y, out, sign)
            else:
                _fold(out, _operand(self, x * y, "+")._terms, sign)
            if len(out) > limit:
                raise TermLimitError.terms(len(out), limit)
        return element._raw(self, out)


def join_signed(pieces) -> str:
    """Join (negative, text) pieces as ``-x + y - z``; ``0`` if there are none."""
    out = []
    for negative, text in pieces:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(text)
    return "".join(out) or "0"


class RingElement:
    """An element of ``ring``: ``_coerce``, ``repr``, subtraction, reflected
    ``*`` and ``**`` from ``+``, unary ``-``, ``*`` and ``_MISMATCH``, the
    message for an operand from another ring."""

    __slots__ = ()

    def _coerce(self, other):
        """other as an element of this ring: an element of this class as it
        is, refused with ``_MISMATCH`` if its ring differs, an int as
        ``ring.from_int``, and None for anything else."""
        if isinstance(other, self.__class__):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError(self._MISMATCH)
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._coerce(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


def _operand(ring, x, op: str):
    """x as an element of ``ring``, whose elements are ``RingElement``s:
    coerced as ``op`` coerces it, and refused with TypeError where ``op``
    has no meaning for it."""
    coerced = ring.zero._coerce(x)
    if coerced is None:
        raise TypeError(f"unsupported operand type for {op} in {ring!r}: {type(x).__name__!r}")
    return coerced


def _fold(out: dict, terms: dict, sign: int) -> dict:
    # out plus sign times terms, in place: every sparse + and - runs this
    get = out.get
    for key, coeff in terms.items():
        new = get(key, 0) + sign * coeff
        if new:
            out[key] = new
        else:
            del out[key]
    return out


class SparseElement(RingElement):
    """Immutable sparse table from keys to nonzero integer coefficients."""

    __slots__ = ("ring", "_terms", "_view")

    # canonical text lists the keys in this order; None is integer order
    _order = None

    @classmethod
    def _raw(cls, ring, terms: dict):
        # internal fast path: terms already normalized
        self = object.__new__(cls)
        self.ring = ring
        self._terms = terms
        self._view = None
        return self

    def is_zero(self) -> bool:
        return not self._terms

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._raw(self.ring, self._mul_into(other, {}, 1))

    def __add__(self, other, sign: int = 1):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._raw(self.ring, _fold(dict(self._terms), other._terms, sign))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._raw(self.ring, {k: -c for k, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({self._UNIT: other} if other else {})
        return (
            isinstance(other, self.__class__)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        terms = self._terms
        if terms.keys() <= {self._UNIT}:
            # a scalar equals its int, so it hashes as one
            return hash(terms.get(self._UNIT, 0))
        return hash((self.ring, frozenset(terms.items())))

    def __str__(self) -> str:
        terms = self._terms
        key_text = self._key_text
        pieces = []
        for key in sorted(terms, key=self._order):
            coeff = terms[key]
            body = key_text(key)
            mag = abs(coeff)
            if body and mag != 1:
                body = f"{mag}*{body}"
            pieces.append((coeff < 0, body or str(mag)))
        return join_signed(pieces)


def commutator(x, y):
    """The additive commutator xy - yx."""
    return x * y - y * x
