import json
import random
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
    RingSpec,
    load_matrix,
    loads_matrix,
    parse_expression,
    save_matrix,
)


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
    spec = RingSpec.free("a", "b")
    algebra = FreeAlgebra(("a", "b"))
    a, b = algebra.gens()
    assert parse_expression("a*b - b*a", spec) == a * b - b * a


def test_grassmann_expression():
    E = GrassmannAlgebra(2)
    v1, v2 = E.gens()
    assert parse_expression("2*v1*v2 + 1", RingSpec.grassmann(2)) == 1 + 2 * (v1 * v2)


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
        assert parse_expression(str(element), element.algebra) == element


# -- ring specs -----------------------------------------------------------------


def test_ring_spec_validation():
    with pytest.raises(ValueError):
        RingSpec(kind="field")
    with pytest.raises(ValueError):
        RingSpec.free()
    with pytest.raises(ValueError):
        RingSpec.free("a", "a")
    with pytest.raises(ValueError):
        RingSpec.free("not an ident!")
    with pytest.raises(ValueError):
        RingSpec.grassmann(17)


def test_ring_spec_round_trip():
    for spec in (RingSpec.integer(), RingSpec.free("a", "b"), RingSpec.grassmann(5)):
        assert RingSpec.from_json_obj(spec.to_json_obj()) == spec


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
    with pytest.raises(DocumentError, match="not an"):
        loads_matrix(json.dumps(doc), validate_super=True)
    # without the flag the same document loads fine
    _, matrix = loads_matrix(json.dumps(doc))
    assert matrix.n == 2


def test_supermatrix_validation_success():
    doc = {
        "ring": {"kind": "grassmann", "rank": 2},
        "n": 2,
        "t": 1,
        "entries": [["1 + v1*v2", "v1"], ["v2", "3"]],
    }
    _, matrix = loads_matrix(json.dumps(doc), validate_super=True)
    assert matrix.n == 2


def test_document_save_load_round_trip(tmp_path):
    document = MatrixDocument(
        ring=RingSpec.free("a", "b", "c", "d"),
        n=2,
        entries=(("a", "b"), ("c", "d")),
    )
    path = tmp_path / "doc.json"
    save_matrix(path, document)
    loaded, matrix = load_matrix(path)
    assert loaded == document
    assert matrix == document.to_matrix()
