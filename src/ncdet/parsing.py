"""Expression parser and the matrix document format.

Grammar (explicit ``*`` required, juxtaposition is not multiplication):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INTEGER | IDENT | '(' expr ')' | factor '^' INTEGER

``^`` is repeated multiplication with a nonnegative exponent, and
multiplication is left-associative and order preserving.  The exponents
that apply to any one factor, including those on enclosing parentheses
(``(a^10)^100``, ``a^10^100``), may multiply to at most ``MAX_EXPONENT``
(1000), and parentheses nest at most ``MAX_NESTING`` (100) deep.  An
integer may have at most as many digits as the interpreter converts
(``sys.get_int_max_str_digits()``).  A matrix document is a JSON object
with a ring header, the dimension, and a grid of expression strings:

    {"ring": {"kind": "free", "generators": ["a", "b", "c", "d"]},
     "n": 2,
     "entries": [["a", "b"], ["c", "d"]]}

The header names one ``Ring``: ``{"kind": "integer"}`` is ``IntegerRing()``,
``{"kind": "free", "generators": [...]}`` is ``FreeAlgebra`` on at least one
name, and ``{"kind": "grassmann", "rank": m}`` is ``GrassmannAlgebra(m)``.
An optional "t" field records a supermatrix block split, 1 <= t <= n - 1.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .freealg import _NAME, FreeAlgebra
from .grassmann import GrassmannAlgebra
from .matrices import Matrix
from .rings import IntegerRing, Record, Ring, _max_str_digits


class ParseError(ValueError):
    """Syntax or lookup failure while parsing an expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DocumentError(ValueError):
    """Malformed matrix document."""


RING_KINDS = ("integer", "free", "grassmann")

# the largest product of the exponents on one factor: each step of a power
# is a full product, so a free word's power takes time quadratic in it
MAX_EXPONENT = 1000
# the deepest parentheses may nest: the parser recurses four frames a level,
# so this stays well inside the interpreter's default recursion limit (1000)
MAX_NESTING = 100


def _is_json_int(value) -> bool:
    """A JSON integer; true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


_TOKEN_RE = re.compile(rf"\s*(?:(?P<int>[0-9]+)|(?P<ident>{_NAME.pattern})|(?P<sym>[-+*^()]))")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {src[bad_at]!r}", bad_at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, ring: Ring):
        self.tokens = _tokenize(src)
        self.ring = ring
        self.i = 0
        self._names = ring.named_gens()
        self._power = 1  # the largest power on a factor in the open parentheses
        self._depth = 0  # the parentheses open at this point

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        token = self.tokens[self.i]
        self.i += 1
        return token

    def expect_sym(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "sym" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self):
        value = self.expr()
        kind, value_text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value_text!r}", pos)
        return value

    def expr(self):
        total = self.ring.accumulator()
        sign = "+"
        kind, value, _ = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            sign = "-"
        while True:
            rhs = self.term()
            if sign == "+":
                total += rhs
            else:
                total -= rhs
            kind, sign, _ = self.peek()
            if kind != "sym" or sign not in "+-":
                return self.ring.total(total)
            self.advance()

    def term(self):
        total = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                total = total * self.factor()
            else:
                return total

    def factor(self):
        outer = self._power
        self._power = 1
        base = self.primary()
        # a parenthesized primary leaves the largest power inside it
        power = self._power
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value == "^":
                self.advance()
                exponent = self.exponent(power)
                power *= exponent
                base = base ** exponent
            else:
                self._power = max(outer, power)
                return base

    def exponent(self, power: int) -> int:
        """The next exponent, refused if power times it is over the limit."""
        kind, value, pos = self.peek()
        if kind == "sym" and value == "-":
            raise ParseError("exponent must be nonnegative", pos)
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        # compare the digit count first: int() refuses over 4300 digits
        if len(value.lstrip("0")) > len(str(MAX_EXPONENT)) or int(value) > MAX_EXPONENT:
            raise ParseError(f"exponent over the limit of {MAX_EXPONENT}", pos)
        if power * int(value) > MAX_EXPONENT:
            raise ParseError(f"exponents multiply to over the limit of {MAX_EXPONENT}", pos)
        self.advance()
        return int(value)

    def primary(self):
        kind, value, pos = self.advance()
        if kind == "int":
            # int() refuses more digits than the interpreter converts
            limit = _max_str_digits()
            if limit and len(value) > limit:
                raise ParseError(f"integer over the limit of {limit} digits", pos)
            return self.ring.from_int(int(value))
        if kind == "ident":
            if value not in self._names:
                raise ParseError(f"unknown identifier {value!r}", pos)
            return self._names[value]
        if kind == "sym" and value == "(":
            if self._depth == MAX_NESTING:
                raise ParseError(f"parentheses nested over the limit of {MAX_NESTING}", pos)
            self._depth += 1
            inner = self.expr()
            self.expect_sym(")")
            self._depth -= 1
            return inner
        raise ParseError(f"expected a value, found {value!r}" if value else "unexpected end of input", pos)


def parse_expression(src: str, ring: Ring):
    """Parse src into an element of ring."""
    return _Parser(src, ring).parse()


def _read_ring(header) -> Ring:
    """The ring a document's ring header names; a ValueError says what is wrong."""
    if not isinstance(header, dict) or "kind" not in header:
        raise DocumentError("ring header must be an object with a 'kind' field")
    kind = header["kind"]
    if kind == "integer":
        return IntegerRing()
    if kind == "free":
        generators = header.get("generators", [])
        if not isinstance(generators, list) or not all(isinstance(g, str) for g in generators):
            raise DocumentError("ring 'generators' must be a list of strings")
        if not generators:
            raise DocumentError("free ring needs at least one generator name")
        return FreeAlgebra(generators)
    if kind == "grassmann":
        rank = header.get("rank", 0)
        if not _is_json_int(rank):
            raise DocumentError("ring 'rank' must be an integer")
        return GrassmannAlgebra(rank)
    raise DocumentError(f"ring kind must be one of {RING_KINDS}, got {kind!r}")


def _write_ring(ring: Ring) -> dict:
    """The ring header that ``_read_ring`` reads back as ring."""
    if isinstance(ring, FreeAlgebra):
        return {"kind": "free", "generators": list(ring.names)}
    if isinstance(ring, GrassmannAlgebra):
        return {"kind": "grassmann", "rank": ring.rank}
    if isinstance(ring, IntegerRing):
        return {"kind": "integer"}
    raise DocumentError(f"no ring header names {ring!r}")


class MatrixDocument(Record):
    """A matrix file: its ring, dimension, grid of expression strings."""

    __slots__ = ("ring", "n", "entries", "t")
    _defaults = {"t": None}
    ring: Ring
    n: int
    entries: tuple[tuple[str, ...], ...]
    t: int | None

    def to_matrix(self) -> Matrix:
        rows = []
        for i, row in enumerate(self.entries):
            out = []
            for j, src in enumerate(row):
                try:
                    out.append(parse_expression(src, self.ring))
                except ParseError as exc:
                    raise DocumentError(
                        f"entry at row {i + 1}, column {j + 1}: {exc}"
                    ) from exc
            rows.append(out)
        return Matrix(self.ring, rows)

    def to_json_obj(self) -> dict:
        obj = {
            "ring": _write_ring(self.ring),
            "n": self.n,
            "entries": [list(row) for row in self.entries],
        }
        if self.t is not None:
            obj["t"] = self.t
        return obj

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def _read_document(obj) -> MatrixDocument:
    """The document a loaded JSON value describes; a ValueError says what is wrong."""
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    for key in ("ring", "n", "entries"):
        if key not in obj:
            raise DocumentError(f"document is missing the {key!r} field")
    ring = _read_ring(obj["ring"])
    n = obj["n"]
    entries = obj["entries"]
    if not _is_json_int(n):
        raise DocumentError("'n' must be an integer")
    if not isinstance(entries, list) or len(entries) != n:
        raise DocumentError(f"expected {n} entry rows, found {len(entries) if isinstance(entries, list) else 'none'}")
    grid = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"row {i + 1} must hold {n} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise DocumentError(f"entry at row {i + 1}, column {j + 1} must be a string")
        grid.append(tuple(row))
    t = obj.get("t")
    if t is not None:
        if not _is_json_int(t):
            raise DocumentError("'t' must be an integer block split")
        if not 1 <= t <= n - 1:
            raise DocumentError(f"block split t={t} invalid for n={n}")
    return MatrixDocument(ring=ring, n=n, entries=tuple(grid), t=t)


def loads_matrix(text: str) -> tuple[MatrixDocument, Matrix]:
    """Parse a matrix document from its JSON text."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a ValueError: malformed JSON (json.JSONDecodeError) or a number
        # past the interpreter's int digit limit; a RecursionError: arrays
        # or objects nested past the stack's depth
        raise DocumentError(f"not valid JSON: {exc}") from exc
    try:
        document = _read_document(obj)
        return document, document.to_matrix()
    except DocumentError:
        raise
    except ValueError as exc:
        # the refusal of a ring's or the matrix's own constructor
        raise DocumentError(str(exc)) from exc


def load_matrix(path) -> tuple[MatrixDocument, Matrix]:
    """Load a matrix document from a file path."""
    return loads_matrix(Path(path).read_text(encoding="utf-8"))


def save_matrix(path, document: MatrixDocument):
    Path(path).write_text(document.dumps() + "\n", encoding="utf-8")
