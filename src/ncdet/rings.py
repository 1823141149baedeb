"""Ring contract shared by every coefficient domain in the package.

A ring here is a small descriptor object: it knows its ``zero`` and ``one``
elements, how to embed an integer as a central scalar, the generators an
expression may name (``named_gens``) and what tells two rings of its class
apart (``_identity``, from which ``Ring`` builds ``==`` and ``hash``); it
carries one capability flag, ``is_commutative``.  The elements themselves
are ordinary Python values that support ``+``, ``-``, ``*`` and ``==``; the
exact integer ring simply uses Python's built-in ``int``, which is
arbitrary precision, so all arithmetic in the package is exact.

The free and exterior algebras share one sparse core.  A ``SparseRing``
builds ``zero``, ``one``, ``from_int``, its ``SparseSum`` accumulator and
``dot`` from its ``element_type`` and ``term_limit``, the most term pairs
one product and the most terms one sum may reach (10M by default); in the
free algebra it also caps the letters one canonical text may write.  A
``SparseElement`` is a ``_terms`` dict from int keys to nonzero integer
coefficients with ``_raw``, ``is_zero``, ``+`` and ``-`` (one signed fold,
the loop ``SparseSum`` runs too), unary ``-``, ``*``, ``==``, ``hash`` and
canonical text, which lists the keys in integer order unless a subclass
sets ``_order`` (a key's sort key).  A subclass supplies ``_UNIT`` (the
key of the identity), ``_MISMATCH`` (the message for operands of
different algebras), ``_key_text`` (a key's text, empty for the unit), key
validation in ``__init__`` and its product kernel ``_mul_into(other, out,
sign)``, which adds sign times the product into a dict ``out`` that its
caller owns and refuses, before it writes anything, a product of more
than ``term_limit`` term pairs.  ``*`` is that kernel run on a fresh dict,
and ``SparseRing.dot`` runs it for a whole sum of products on one dict,
so no product of a sum is built and then folded.  The kernel reads its
right operand through ``_view``: the right-hand terms in the form the
product loop wants, computed on first use and kept, since an element is
immutable and a matrix entry is the right factor of many products; an
exterior-algebra view also keeps, per left mask, the right terms disjoint
from it, built from the second product on and at most ``term_limit``
references in all.  ``==``, ``hash`` and the sums read ``_terms`` only.
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

Elements are immutable and all operations are pure, so sharing values
between threads is safe.  The one mutable helper is the ``SparseSum`` a
free or exterior algebra hands out for a running sum
(``Ring.accumulator``/``Ring.total``; over the integers and R[z] the sum
is the zero element and ``+``): it lives inside the function that builds
the sum and never escapes it; only the immutable element that ``total``
returns does, and ``total`` ends the sum.
"""

from __future__ import annotations

import operator
import sys
from abc import ABC, abstractmethod

# Python before 3.10.7 has no int-to-str digit limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

_ENDED = "this sum has been totalled; start a new accumulator"


class TermLimitError(RuntimeError):
    """A symbolic operation would exceed the configured term budget."""

    @classmethod
    def pairs(cls, pairs: int, limit: int) -> TermLimitError:
        return cls(f"product would enumerate {pairs} term pairs, over the budget of {limit}")


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
    ``_identity``; ``named_gens`` defaults to no generators, a running sum
    goes through ``accumulator`` and ``total``, and a sum of products
    through ``dot``.  Two rings are equal when they are of one class with
    equal ``_identity()``, and hash alike.  Equality of elements is
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

    def accumulator(self):
        """A fresh running sum, grown by ``acc += x`` and ``acc -= x``.

        Every running sum in the package is written as::

            acc = ring.accumulator()
            for x in terms:
                acc += x
            result = ring.total(acc)

        and ``total`` ends the sum; a sum of products is one
        ``ring.dot(xs, ys, terms)`` call.  By default the accumulator is
        ``zero`` and each step builds a new element, which suits the
        integers and R[z].  Sparse rings return a ``SparseSum``, which
        folds each term into one dict in place, so the sum costs the
        total size of its terms instead of one copy of the running result
        per term.
        """
        return self.zero

    def total(self, acc):
        """The element an accumulator of this ring has summed."""
        return acc

    def dot(self, xs, ys, terms):
        """The sum over (i, j, negative) in ``terms`` of ``xs[i] * ys[j]``,
        less where ``negative`` is set, summed in the accumulator."""
        acc = self.accumulator()
        for i, j, negative in terms:
            acc = acc - xs[i] * ys[j] if negative else acc + xs[i] * ys[j]
        return self.total(acc)


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

    def total(self, acc: int) -> int:
        """The sum, refused once it has more digits than the interpreter will
        print (``sys.get_int_max_str_digits()``, where 0 means no limit)."""
        limit = _max_str_digits()
        # over `limit` digits is over log2(10) * limit > 3.32 * limit bits
        if limit and acc.bit_length() > 3.32 * limit and abs(acc) >= 10**limit:
            raise TermLimitError(
                f"integer sum grew past {limit} digits, the most the interpreter prints"
            )
        return acc

    def dot(self, xs, ys, terms) -> int:
        acc = 0
        for i, j, negative in terms:
            acc = acc - xs[i] * ys[j] if negative else acc + xs[i] * ys[j]
        return self.total(acc)

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

    def accumulator(self) -> SparseSum:
        return SparseSum(self)

    def total(self, acc: SparseSum):
        return acc.value()

    def dot(self, xs, ys, terms):
        # own elements run x's kernel on the sum's dict; other operands take
        # x * y and fold it, which coerces or refuses them as * and + do
        acc = SparseSum(self)
        out, element, limit = acc._terms, self.element_type, acc._limit
        for i, j, negative in terms:
            x, y = xs[i], ys[j]
            if type(x) is type(y) is element and x.ring is self and y.ring is self:
                x._mul_into(y, out, -1 if negative else 1)
                if len(out) > limit:
                    acc._checked(out)
            elif negative:
                acc -= x * y
            else:
                acc += x * y
        return acc.value()


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


class SparseSum:
    """In-place running sum of the elements of one ``SparseRing``.

    The sum owns one dict: ``acc + x`` and ``acc - x`` fold the terms of x
    into it and return the accumulator itself, and ``SparseRing.dot``
    writes the term pairs of its products into it.  ``value()`` hands the
    dict out inside a new element and ends the sum, so no element that has
    been handed out is ever mutated: after it a fold or a second
    ``value()`` raises RuntimeError.  A sum that grows past the
    ring's ``term_limit`` raises TermLimitError.  Both checks run once per
    call, never per term.
    """

    __slots__ = ("_ring", "_element", "_limit", "_terms")

    def __init__(self, ring: SparseRing):
        self._ring = ring
        self._element = ring.element_type
        self._limit = ring.term_limit
        self._terms = {}  # None once the sum has ended

    def __add__(self, x, sign: int = 1):
        # __sub__ is this with sign -1
        if type(x) is not self._element or x.ring is not self._ring:
            x = self._ring.zero._coerce(x)
            if x is None:
                return NotImplemented
        return self._checked(_fold(self._open(), x._terms, sign))

    def __sub__(self, x):
        return self.__add__(x, -1)

    def _open(self) -> dict:
        if self._terms is None:
            raise RuntimeError(_ENDED)
        return self._terms

    def _checked(self, out: dict) -> SparseSum:
        if len(out) > self._limit:
            raise TermLimitError(
                f"sum grew to {len(out)} terms, over the budget of {self._limit}"
            )
        return self

    def value(self):
        """The summed element; the sum ends here."""
        terms = self._open()
        self._terms = None
        return self._element._raw(self._ring, terms)


def commutator(x, y):
    """The additive commutator xy - yx."""
    return x * y - y * x
