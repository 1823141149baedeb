"""Ring contract shared by every coefficient domain in the package.

A ring here is a small descriptor object: it knows its ``zero`` and ``one``
elements, how to embed an integer as a central scalar, and carries two
capability flags (``is_commutative``, ``is_z2_graded``).  The elements
themselves are ordinary Python values that support ``+``, ``-``, ``*`` and
``==``; the exact integer ring simply uses Python's built-in ``int``, which
is arbitrary precision, so all arithmetic in the package is exact.

The free and exterior algebras share one sparse core.  A ``SparseRing``
builds ``zero``, ``one``, ``from_int`` and its ``SparseSum`` accumulator
from its ``element_type`` and ``term_limit``, the most term pairs one
product and the most terms one sum may reach (10M by default); in the free
algebra it also caps the letters one canonical text may write.  A
``SparseElement`` is a ``_terms`` dict from int keys to nonzero integer
coefficients with ``_raw``, ``_coerce``, ``is_zero``, ``+``, unary ``-``,
``==``, ``hash`` and canonical text, which lists the keys in integer order
unless a subclass sets ``_order`` (a key's sort key).  A subclass supplies
``_UNIT`` (the key of the identity), ``_MISMATCH`` (the message for
operands of different algebras), ``_key_text`` (a key's text, empty for the
unit), key validation in ``__init__`` and its own ``__mul__``, which
refuses a product of more than ``term_limit`` term pairs.  ``__mul__``
reads its right operand through ``_view``: the right-hand terms in the form
the product loop wants, computed on first use and kept, since an element
is immutable and a matrix entry is the right factor of many products.
``==``, ``hash`` and the sums read ``_terms`` only.
``RingElement`` builds binary and reflected ``-``, reflected ``*`` and
``**`` from ``_coerce``, ``+``, unary ``-`` and ``*``; ``CentralPoly``
and ``matrices.Matrix`` use it too.

``Record`` is the base of the package's result and option records
(``AxiomReport``, ``AdjointSequence``, ``RingSpec``, ``CheckResult`` and
the rest): plain ``__slots__`` classes with field-wise equality, hash and
repr, frozen unless declared otherwise, built without the import-time cost
of ``dataclasses``.

Elements are immutable and all operations are pure, so sharing values
between threads is safe.  The one mutable helper is the accumulator a ring
hands out for a running sum (``Ring.accumulator``/``Ring.total``): it lives
inside the function that builds the sum and never escapes it; only the
immutable element that ``total`` returns does.
"""

from __future__ import annotations

import random
import sys
from abc import ABC, abstractmethod

# the term budget of a sparse ring: the most term pairs one product may
# enumerate, the most terms one running sum may hold, and the most letters
# the text of one free-algebra element may write
DEFAULT_TERM_LIMIT = 10_000_000

# Python before 3.10.7 has no int-to-str digit limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


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
    way.  A record is frozen, so assigning to it raises AttributeError,
    unless its class is declared with ``frozen=False``; such a record is
    unhashable.  No record class runs code generation at import.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

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

    Concrete rings provide ``zero``, ``one`` and ``from_int``; a running
    sum goes through ``accumulator`` and ``total``.  Equality of elements
    is structural: two elements are equal exactly when their canonical
    renderings (``str``) coincide, which every element type guarantees by
    normalizing on construction.  A seeded random element is not part of
    the contract: the free and exterior algebras each draw theirs with
    keywords of their own.
    """

    is_commutative: bool = False
    is_z2_graded: bool = False

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

    def accumulator(self):
        """A fresh running sum, grown by ``acc += x`` and ``acc -= x``.

        Every running sum in the package is written as::

            acc = ring.accumulator()
            for x in terms:
                acc += x
            result = ring.total(acc)

        By default the accumulator is ``zero`` and each step builds a new
        element.  Sparse rings return a ``SparseSum``, which folds each
        term into one dict in place, so the sum costs the total size of its
        terms instead of one copy of the running result per term.
        """
        return self.zero

    def total(self, acc):
        """The element an accumulator of this ring has summed."""
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
        return int(k)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash("IntegerRing")

    def __repr__(self) -> str:
        return "IntegerRing()"


class SparseRing(Ring):
    """A ring of ``element_type`` elements, summed under ``term_limit``."""

    element_type: type
    term_limit = DEFAULT_TERM_LIMIT

    @property
    def zero(self):
        return self.element_type._raw(self, {})

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        element = self.element_type
        return element._raw(self, {element._UNIT: k} if k else {})

    def accumulator(self) -> SparseSum:
        return SparseSum(self)

    def total(self, acc: SparseSum):
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
    """Subtraction, reflected ``*`` and ``**`` from ``_coerce`` (an operand
    as an element of this ring, or None), ``+``, unary ``-`` and ``*``."""

    __slots__ = ()

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


class SparseElement(RingElement):
    """Immutable sparse table from keys to nonzero integer coefficients."""

    __slots__ = ("algebra", "_terms", "_view")

    # canonical text lists the keys in this order; None is integer order
    _order = None

    @classmethod
    def _raw(cls, algebra, terms: dict):
        # internal fast path: terms already normalized
        self = object.__new__(cls)
        self.algebra = algebra
        self._terms = terms
        self._view = None
        return self

    def is_zero(self) -> bool:
        return not self._terms

    def _coerce(self, other):
        if isinstance(other, self.__class__):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError(self._MISMATCH)
            return other
        if isinstance(other, int):
            return self.algebra.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                del out[key]
        return self._raw(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self.algebra, {k: -c for k, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == ({self._UNIT: other} if other else {})
        return (
            isinstance(other, self.__class__)
            and self.algebra == other.algebra
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        terms = self._terms
        if terms.keys() <= {self._UNIT}:
            # a scalar equals its int, so it hashes as one
            return hash(terms.get(self._UNIT, 0))
        return hash((self.algebra, frozenset(terms.items())))

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

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class SparseSum:
    """In-place running sum of the elements of one ``SparseRing``.

    ``acc + x`` and ``acc - x`` fold the terms of x into one dict and return
    the accumulator itself.  A lone positive term is held by reference and
    its dict is copied only when a second term arrives; ``value()`` hands
    the dict out inside a new element and drops it, so no element that has
    been handed out is ever mutated.  A sum that grows past the ring's
    ``term_limit`` raises TermLimitError; the check runs once per
    ``+``/``-``.
    """

    __slots__ = ("_ring", "_element", "_limit", "_lone", "_terms")

    def __init__(self, ring: SparseRing):
        self._ring = ring
        self._element = ring.element_type
        self._limit = ring.term_limit
        self._lone = None  # the only term so far, shared, not copied
        self._terms = None  # the owned dict, once a second term arrives

    def __add__(self, x, sign: int = 1):
        # __sub__ is this with sign -1
        ring = self._ring
        if type(x) is not self._element or x.algebra is not ring:
            x = ring.zero._coerce(x)
            if x is None:
                return NotImplemented
        out = self._terms
        if out is None:
            lone = self._lone
            if lone is None and sign > 0:
                self._lone = x
                return self
            out = self._terms = {} if lone is None else dict(lone._terms)
            self._lone = None
        get = out.get
        for key, coeff in x._terms.items():
            new = get(key, 0) + sign * coeff
            if new:
                out[key] = new
            else:
                del out[key]
        if len(out) > self._limit:
            raise TermLimitError(
                f"sum grew to {len(out)} terms, over the budget of {self._limit}"
            )
        return self

    def __sub__(self, x):
        return self.__add__(x, -1)

    def value(self):
        """The summed element; the accumulator keeps it as a lone term."""
        if self._terms is None:
            return self._ring.zero if self._lone is None else self._lone
        self._lone = self._element._raw(self._ring, self._terms)
        self._terms = None
        return self._lone


def commutator(x, y):
    """The additive commutator xy - yx."""
    return x * y - y * x


_AXIOMS = (
    "add_associative",
    "add_commutative",
    "mul_associative",
    "left_distributive",
    "right_distributive",
    "zero_is_additive_identity",
    "one_is_multiplicative_identity",
    "additive_inverse",
)


class AxiomReport(Record, frozen=False):
    """Outcome of a seeded ring-axiom spot check, one verdict per axiom."""

    __slots__ = ("trials", "results", "failures")
    _defaults = {"results": dict, "failures": list}
    trials: int
    results: dict
    failures: list

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def __str__(self) -> str:
        lines = [f"{name}: {'pass' if good else 'FAIL'}" for name, good in self.results.items()]
        return "\n".join(lines) if lines else "(no trials)"


def ring_axiom_check(ring: Ring, samples, trials: int = 100, seed: int = 0) -> AxiomReport:
    """Spot-check the ring axioms on seeded random triples drawn from samples.

    Returns a pass/fail verdict per axiom (associativity, commutativity of
    addition, distributivity, identities, additive inverses).  Deterministic
    for a given seed; zero trials yields an empty report.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("samples must be nonempty")
    if trials <= 0:
        return AxiomReport(trials=trials)
    rng = random.Random(seed)
    zero, one = ring.zero, ring.one
    results = {name: True for name in _AXIOMS}
    failures = []
    for _ in range(trials):
        x = rng.choice(samples)
        y = rng.choice(samples)
        z = rng.choice(samples)
        checks = {
            "add_associative": (x + y) + z == x + (y + z),
            "add_commutative": x + y == y + x,
            "mul_associative": (x * y) * z == x * (y * z),
            "left_distributive": x * (y + z) == x * y + x * z,
            "right_distributive": (x + y) * z == x * z + y * z,
            "zero_is_additive_identity": x + zero == x,
            "one_is_multiplicative_identity": one * x == x and x * one == x,
            "additive_inverse": x + (-x) == zero,
        }
        for name, good in checks.items():
            if not good:
                if results[name]:
                    failures.append((name, x, y, z))
                results[name] = False
    return AxiomReport(trials, results, failures)
