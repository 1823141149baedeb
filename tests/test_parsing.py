import hashlib
import json
import random
import sys
from functools import reduce

import pytest

from ncdet import (
    DocumentError,
    FreeAlgebra,
    FreePoly,
    GrassmannAlgebra,
    IntegerRing,
    Matrix,
    MatrixDocument,
    ParseError,
    PolynomialRing,
    is_supermatrix,
    load_matrix,
    loads_matrix,
    parse_expression,
    save_matrix,
)
from ncdet import parsing


# -- grammar ------------------------------------------------------------------


def test_long_sums_parse_in_place(monkeypatch):
    # repeated FreePoly + copies the running sum on every term; the parser
    # folds each term into the ring's accumulator instead
    algebra = FreeAlgebra(("a", "b", "c"))
    gens = dict(zip(algebra.names, algebra.gens()))
    rng = random.Random(5)
    pieces, expected = [], algebra.zero
    for i in range(300):
        coeff = rng.randint(1, 9)
        word = [rng.choice("abc") for _ in range(rng.randint(1, 3))]
        negative = i == 0 or rng.random() < 0.5
        term = reduce(lambda x, y: x * y, (gens[w] for w in word), algebra.from_int(coeff))
        expected = expected - term if negative else expected + term
        pieces.append(f"{'-' if negative else '+'} {coeff}*{'*'.join(word)}")
    src = " ".join(pieces)
    calls = dict.fromkeys(("__add__", "__radd__", "__sub__", "__rsub__"), 0)
    for name in calls:
        def counted(self, other, original=getattr(FreePoly, name), name=name):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(FreePoly, name, counted)
    assert parse_expression(src, algebra) == expected
    assert calls == dict.fromkeys(calls, 0)


def test_commutator_expression():
    algebra = FreeAlgebra(("a", "b"))
    a, b = algebra.gens()
    assert parse_expression("a*b - b*a", algebra) == a * b - b * a


def test_grassmann_expression():
    E = GrassmannAlgebra(2)
    v1, v2 = E.gens()
    assert parse_expression("2*v1*v2 + 1", E) == 1 + 2 * (v1 * v2)


def test_power_distributes_in_order():
    algebra = FreeAlgebra(("a", "b", "c"))
    a, b, c = algebra.gens()
    result = parse_expression("a*(b + c)^2", algebra)
    assert result == a * b * b + a * b * c + a * c * b + a * c * c


def test_integer_arithmetic():
    assert parse_expression("1 + 2*3^2", IntegerRing()) == 19
    assert parse_expression("-4", IntegerRing()) == -4


def test_leading_minus_and_parenthesized_minus():
    algebra = FreeAlgebra(("a", "b"))
    a, b = algebra.gens()
    assert parse_expression("-a + b", algebra) == b - a
    assert parse_expression("(-a)*b", algebra) == -(a * b)


def test_juxtaposition_is_not_multiplication():
    algebra = FreeAlgebra(("a", "b"))
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("a b", algebra)


def test_unknown_identifier_carries_position():
    algebra = FreeAlgebra(("a", "b"))
    with pytest.raises(ParseError, match="unknown identifier 'x'") as info:
        parse_expression("a*x", algebra)
    assert info.value.position == 2


def test_negative_exponent_is_rejected():
    algebra = FreeAlgebra(("a",))
    with pytest.raises(ParseError, match="nonnegative"):
        parse_expression("a^-2", algebra)


def test_exponent_limit():
    algebra = FreeAlgebra(("a",))
    assert parse_expression("a^1000", algebra).degree() == 1000
    assert parse_expression("a^0001000", algebra).degree() == 1000
    for src in ("a^1001", "a^" + "9" * 5000):
        with pytest.raises(ParseError, match="over the limit of 1000") as info:
            parse_expression(src, algebra)
        assert info.value.position == 2


def test_integer_literal_digit_limit(monkeypatch):
    # int() refuses a literal of more digits than the interpreter converts;
    # leading zeros count, as they do for int()
    monkeypatch.setattr(parsing, "_max_str_digits", lambda: 5)
    assert parse_expression("2 * 99999", IntegerRing()) == 199_998
    assert parse_expression("00001 + a", FreeAlgebra(("a",))) == 1 + FreeAlgebra(("a",)).gen("a")
    for src in ("2 * 100000", "2 * 000001"):
        with pytest.raises(ParseError, match=r"^integer over the limit of 5 digits \(at position 4\)$"):
            parse_expression(src, IntegerRing())
    monkeypatch.setattr(parsing, "_max_str_digits", lambda: 0)  # 0: no limit
    assert parse_expression("1" + "0" * 40, IntegerRing()) == 10**40


@pytest.mark.parametrize(
    "src, position",
    [("\u0661\u0662", 0), ("a^\u0663", 2), ("a^\u0663 + \u0661\u0662", 2), ("1\u0662", 1)],
    ids=["bare literal", "exponent", "both", "after an ASCII digit"],
)
def test_integers_are_ascii_digits(src, position):
    # Python's int() and \d accept any Unicode decimal digit; the grammar's
    # INTEGER is [0-9]+
    with pytest.raises(ParseError, match="^unexpected character") as info:
        parse_expression(src, FreeAlgebra(("a",)))
    assert info.value.position == position


def test_nested_exponents_multiply_under_the_limit():
    algebra = FreeAlgebra(("a", "b"))
    for src in ("(a^1000)^1000", "a^1000^2", "((a^10)^10)^11", "(a*(b^2)^600)^2"):
        with pytest.raises(ParseError, match="multiply to over the limit of 1000"):
            parse_expression(src, algebra)
    assert parse_expression("a^10^100", algebra).degree() == 1000
    assert parse_expression("(a^10)^100", algebra).degree() == 1000
    assert parse_expression("(a^2)^3", algebra) == parse_expression("a^6", algebra)
    # exponents on separate factors do not multiply
    assert parse_expression("(a^1000)*(b^1000)", algebra).degree() == 2000
    assert parse_expression("(a^1000)^0", algebra) == 1


def test_parenthesis_nesting_limit():
    deepest = "(" * 100 + "1" + ")" * 100
    assert parse_expression(deepest, IntegerRing()) == 1
    for depth in (101, 250):
        with pytest.raises(ParseError, match="nested over the limit of 100") as info:
            parse_expression("(" * depth + "1" + ")" * depth, IntegerRing())
        assert info.value.position == 100


def test_syntax_errors_carry_positions():
    algebra = FreeAlgebra(("a", "b"))
    with pytest.raises(ParseError) as info:
        parse_expression("a + ", algebra)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("(a + b", algebra)
    with pytest.raises(ParseError):
        parse_expression("a + + b", algebra)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("a $ b", algebra)


def test_zero_and_exponent_edge_cases():
    algebra = FreeAlgebra(("a",))
    a = algebra.gen("a")
    assert parse_expression("0", algebra).is_zero()
    assert parse_expression("a^0", algebra) == algebra.one
    assert parse_expression("a^2^2", algebra) == a * a * a * a


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: FreeAlgebra(("a", "b", "c")).random_element(rng, max_degree=3),
        lambda rng: GrassmannAlgebra(4).random_element(rng, max_terms=4),
    ],
    ids=["free", "grassmann"],
)
def test_render_parse_round_trip_500(build):
    rng = random.Random(2024)
    for _ in range(500):
        element = build(rng)
        assert parse_expression(str(element), element.ring) == element


# -- ring headers -----------------------------------------------------------------
# A document's ring header (its ring spec) names the Ring it is read into.


def test_ring_spec_validation():
    for ring_header, refusal in [
        ({"kind": "field"}, "ring kind must be one of ('integer', 'free', 'grassmann'), got 'field'"),
        ({"kind": "free"}, "free ring needs at least one generator name"),
        ({"kind": "free", "generators": []}, "free ring needs at least one generator name"),
        ({"kind": "free", "generators": ["a", "a"]}, "generator names must be unique"),
        ({"kind": "free", "generators": ["not an ident!"]}, "invalid generator name 'not an ident!'"),
        ({"kind": "grassmann", "rank": 17}, "rank must be between 0 and 16"),
        ({"kind": "grassmann", "rank": -1}, "rank must be between 0 and 16"),
        ([], "ring header must be an object with a 'kind' field"),
        ({"rank": 2}, "ring header must be an object with a 'kind' field"),
    ]:
        text = json.dumps({"ring": ring_header, "n": 1, "entries": [["1"]]})
        with pytest.raises(DocumentError) as caught:
            loads_matrix(text)
        assert str(caught.value) == refusal


def test_ring_spec_round_trip():
    # each header kind, with the sha256 of the text the format has always written
    for ring, entries, t, digest in [
        (IntegerRing(), (("7",),), None, "3a291617341ad2d0a1a5c560b7a2d55c01982fafaa51168605676cb24137ac5b"),
        (
            FreeAlgebra(("a", "b")),
            (("a", "b"), ("b*a", "a^2 - 1")),
            None,
            "ea58ef762a79fb9aedd65794332e1b71abe6b0541e1828ddf594d4ebc7251d46",
        ),
        (
            GrassmannAlgebra(2),
            (("1 + v1*v2", "v1"), ("v2", "3")),
            1,
            "a3a3c123fa1e62f7d6948f8bd308d66867583d7ea94c32509a35e77018df26b3",
        ),
    ]:
        document = MatrixDocument(ring=ring, n=len(entries), entries=entries, t=t)
        text = document.dumps()
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        loaded, matrix = loads_matrix(text)
        assert loaded == document
        assert loaded.ring == ring and matrix.ring == ring
        assert loaded.dumps() == text


def test_writing_a_ring_no_header_names_is_refused():
    document = MatrixDocument(ring=PolynomialRing(IntegerRing()), n=1, entries=(("1",),))
    with pytest.raises(DocumentError, match=r"^no ring header names PolynomialRing\("):
        document.dumps()


# -- matrix documents -------------------------------------------------------------


GENERIC_DOC = {
    "ring": {"kind": "free", "generators": ["a", "b", "c", "d"]},
    "n": 2,
    "entries": [["a", "b"], ["c", "d"]],
}


def test_load_generic_document(tmp_path):
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(GENERIC_DOC))
    document, matrix = load_matrix(path)
    algebra = FreeAlgebra(("a", "b", "c", "d"))
    a, b, c, d = algebra.gens()
    assert matrix == Matrix(algebra, [[a, b], [c, d]])
    assert document.n == 2


def test_load_integer_document():
    text = json.dumps(
        {"ring": {"kind": "integer"}, "n": 2, "entries": [["1", "2"], ["3", "4"]]}
    )
    _, matrix = loads_matrix(text)
    assert matrix == Matrix(IntegerRing(), [[1, 2], [3, 4]])


def test_dimension_inconsistency_is_reported():
    bad = dict(GENERIC_DOC, n=3)
    with pytest.raises(DocumentError, match="3 entry rows"):
        loads_matrix(json.dumps(bad))


def test_bad_entry_reports_row_and_column():
    bad = {
        "ring": {"kind": "free", "generators": ["a"]},
        "n": 2,
        "entries": [["a", "a"], ["a", "a*q"]],
    }
    with pytest.raises(DocumentError, match="row 2, column 2"):
        loads_matrix(json.dumps(bad))


def test_missing_fields_and_bad_json():
    with pytest.raises(DocumentError, match="not valid JSON"):
        loads_matrix("{")
    with pytest.raises(DocumentError, match="missing"):
        loads_matrix(json.dumps({"n": 1}))
    # nesting past the interpreter's recursion limit is malformed JSON too
    with pytest.raises(DocumentError, match="not valid JSON: maximum recursion depth"):
        loads_matrix("[" * 1000 + "]" * 1000)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
@pytest.mark.parametrize(
    "template",
    [
        '{"ring": {"kind": "integer"}, "n": BIG, "entries": [["1"]]}',
        '{"ring": {"kind": "grassmann", "rank": BIG}, "n": 1, "entries": [["1"]]}',
    ],
    ids=["n", "rank"],
)
def test_a_number_past_the_digit_limit_is_not_valid_json(template):
    # json.loads raises a plain ValueError for an int it will not convert
    big = "1" + "0" * sys.get_int_max_str_digits()
    with pytest.raises(DocumentError, match="^not valid JSON: Exceeds the limit"):
        loads_matrix(template.replace("BIG", big))


def test_block_split_is_checked_without_supermatrix_validation():
    doc = {"ring": {"kind": "integer"}, "n": 3, "t": 2, "entries": [["1", "2", "3"]] * 3}
    document, matrix = loads_matrix(json.dumps(doc))
    assert (document.t, matrix.n) == (2, 3)
    doc.update(n=2, entries=[["1", "2"], ["3", "4"]])
    with pytest.raises(DocumentError, match="block split t=2 invalid for n=2"):
        loads_matrix(json.dumps(doc))


def test_supermatrix_validation_failure():
    doc = {
        "ring": {"kind": "grassmann", "rank": 2},
        "n": 2,
        "t": 1,
        "entries": [["v1", "v2"], ["v1", "1"]],
    }
    # the document loads; the supermatrix check is the caller's to make
    document, matrix = loads_matrix(json.dumps(doc))
    assert not is_supermatrix(matrix, document.t)


def test_supermatrix_validation_success():
    doc = {
        "ring": {"kind": "grassmann", "rank": 2},
        "n": 2,
        "t": 1,
        "entries": [["1 + v1*v2", "v1"], ["v2", "3"]],
    }
    document, matrix = loads_matrix(json.dumps(doc))
    assert is_supermatrix(matrix, document.t)


def test_document_save_load_round_trip(tmp_path):
    document = MatrixDocument(
        ring=FreeAlgebra(("a", "b", "c", "d")),
        n=2,
        entries=(("a", "b"), ("c", "d")),
    )
    path = tmp_path / "doc.json"
    save_matrix(path, document)
    loaded, matrix = load_matrix(path)
    assert loaded == document
    assert matrix == document.to_matrix()
