import hashlib
import io
import json
import os
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ncdet import FreeAlgebra, GrassmannAlgebra, TermLimitError, cli, parsing, standard_polynomial_4
from ncdet.cli import main
from ncdet.verify import generic_matrix

from loaded_modules import cli_code, loaded_in_fresh_interpreter


INTEGER_DOC = json.dumps(
    {"ring": {"kind": "integer"}, "n": 2, "entries": [["1", "2"], ["3", "4"]]}
)


@pytest.fixture
def integer_doc(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(INTEGER_DOC)
    return str(path)


def test_sdet_generic_text(capsys):
    assert main(["sdet", "--generic", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "a*d - b*c - c*b + d*a"


@pytest.mark.parametrize(
    "command, operation",
    [
        (["sdet"], "sdet"),
        (["preadj"], "preadj"),
        (["rdet", "--k", "2"], "rdet_2"),
        (["ldet"], "ldet_1"),
        (["charpoly", "--side", "left", "--k", "2"], "charpoly_left_2"),
        (["newton"], "newton_2"),
        (["s4"], "s4"),
    ],
    ids=lambda value: value if isinstance(value, str) else " ".join(value),
)
def test_machine_record_names_the_operation(capsys, integer_doc, command, operation):
    assert main([*command, "--input", integer_doc]) == 0
    text = capsys.readouterr().out
    assert main([*command, "--input", integer_doc, "--output", "machine"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["operation"] == operation
    assert record["result_canonical_text"] + "\n" == text


def test_sdet_machine_record(capsys, integer_doc):
    assert main(["sdet", "--input", integer_doc, "--output", "machine"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["operation"] == "sdet"
    assert record["result_canonical_text"] == "-4"
    assert len(record["input_digest"]) == 64
    assert record["elapsed_ms"] >= 0


def test_machine_digest_is_stable(capsys, integer_doc):
    main(["sdet", "--input", integer_doc, "--output", "machine"])
    first = json.loads(capsys.readouterr().out)["input_digest"]
    main(["sdet", "--input", integer_doc, "--output", "machine"])
    second = json.loads(capsys.readouterr().out)["input_digest"]
    assert first == second


def test_input_is_read_once_and_digested_as_read(capsys, monkeypatch, integer_doc):
    reads = []

    def counting_open(path, *args, **kwargs):
        reads.append(path)
        return open(path, *args, **kwargs)

    def no_open(path, *args, **kwargs):
        raise AssertionError("the document was read a second time")

    # the CLI and the document module open files with the builtin ``open``
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    monkeypatch.setattr(parsing, "open", no_open, raising=False)
    assert main(["sdet", "--input", integer_doc, "--output", "machine"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert reads == [integer_doc]
    assert record["result_canonical_text"] == "-4"
    assert record["input_digest"] == hashlib.sha256(INTEGER_DOC.encode()).hexdigest()
    # pinned, so the digest of a document cannot drift between versions
    assert record["input_digest"] == "5e13f69b39c50cce190fc37ad149b4287ec224f7c080dbb594185e60d0e95e06"


def test_undecodable_input_is_input_error(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_bytes(INTEGER_DOC.encode().replace(b'"1"', b'"\xff"'))
    assert main(["sdet", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_preadj_prints_rows(capsys, integer_doc):
    assert main(["preadj", "--input", integer_doc]) == 0
    assert capsys.readouterr().out.strip() == "[4, -2]\n[-3, 1]"


def test_rdet_k2(capsys, integer_doc):
    assert main(["rdet", "--k", "2", "--input", integer_doc]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_ldet_default_k(capsys, integer_doc):
    assert main(["ldet", "--input", integer_doc]) == 0
    assert capsys.readouterr().out.strip() == "-4"


def test_charpoly_generic(capsys):
    assert main(["charpoly", "--side", "right", "--k", "1", "--generic", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2*z^2 - (2*a + 2*d)*z + (a*d - b*c - c*b + d*a)"


def test_newton_defaults_to_matrix_size(capsys, integer_doc):
    assert main(["newton", "--input", integer_doc]) == 0
    assert capsys.readouterr().out.strip() == "-4"


def test_newton_has_no_size_flag(capsys, integer_doc):
    # the formula's size is the input's size, so there is nothing to choose
    with pytest.raises(SystemExit) as exit_info:
        main(["newton", "--n", "2", "--input", integer_doc])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --n 2" in capsys.readouterr().err


def test_s4_on_generic_entries(capsys):
    assert main(["s4", "--generic", "2"]) == 0
    out = capsys.readouterr().out.strip()
    algebra, A = generic_matrix(2)
    (a, b), (c, d) = A.rows
    assert out == str(standard_polynomial_4(a, b, c, d))


def test_verify_suite_passes(capsys):
    assert main(["verify", "--suite", "prop4_1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "all checks passed" in out


def test_verify_machine_records(capsys):
    assert main(["verify", "--suite", "prop4_1", "--output", "machine"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert record["operation"].startswith("verify:prop4_1:")
        assert record["result_canonical_text"] == "pass"
        # pinned: the SHA-256 of the sorted-key JSON of the verify request
        assert record["input_digest"] == (
            "8546d13a103b84d8b406259a9a015a635f9974fc583c635c51542346aa26735b"
        )


@pytest.mark.parametrize("suite", ["thm2_7", "all"])
def test_scalar_ch_below_k2_is_refused_before_any_check(capsys, suite):
    assert main(["verify", "--suite", suite, "--n", "2", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: thm2_7 needs k >= 2, the exterior algebra's Lie-nilpotency index\n"
    )


def test_scalar_ch_suite_reads_n(capsys):
    assert main(["verify", "--suite", "thm2_7", "--n", "3", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] thm2_7 n=3 rank=4: scalar CH identities" in out
    assert "all checks passed" in out


def test_unknown_suite_is_input_error(capsys):
    assert main(["verify", "--suite", "thm9_9"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_oversized_verify_request_is_input_error(capsys):
    assert main(["verify", "--suite", "thm3_1", "--n", "9"]) == 2
    assert "outside" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["sdet", "--input", "/nonexistent/matrix.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_generic_dimension(capsys):
    assert main(["sdet", "--generic", "0"]) == 2


def test_term_budget_hit_is_a_clean_exit_2(capsys):
    assert main(["rdet", "--k", "3", "--generic", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: product would enumerate")


def test_sum_over_the_term_budget_is_a_clean_exit_2(capsys, monkeypatch):
    def small_budget(n):
        algebra, A = generic_matrix(n)
        algebra.term_limit = 35
        return algebra, A

    monkeypatch.setattr(cli, "generic_matrix", small_budget)
    assert main(["sdet", "--generic", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sum grew to 36 terms, over the budget of 35")


def test_text_over_the_letter_budget_is_a_clean_exit_2(capsys, monkeypatch, tmp_path):
    # sdet of [[a, b], [c, d]] has 4 words of 2 letters: 8 letters in all
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(
        {"ring": {"kind": "free", "generators": ["a", "b", "c", "d"]}, "n": 2,
         "entries": [["a", "b"], ["c", "d"]]}
    ))

    def budget(limit):
        def read_ring(header):
            algebra = FreeAlgebra(header["generators"])
            algebra.term_limit = limit
            return algebra

        monkeypatch.setattr(parsing, "_read_ring", read_ring)

    budget(8)
    assert main(["sdet", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "a*d - b*c - c*b + d*a\n"
    budget(7)
    assert main(["sdet", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: text would write 8 letters, over the budget of 7\n"


def test_exterior_product_over_the_pair_budget_is_a_clean_exit_2(capsys, tmp_path):
    # 2^14 terms squared: 268M term pairs, over the default budget of 10M
    entry = "(" + "*".join(f"(1+v{i})" for i in range(1, 15)) + ")^2"
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"ring": {"kind": "grassmann", "rank": 14}, "n": 1, "entries": [[entry]]}))
    start = time.perf_counter()
    assert main(["sdet", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: product would enumerate 268435456 term pairs, over the budget of 10000000\n"
    )


def test_the_rank_14_square_is_refused_before_its_dense_list_exists():
    # the README's square as one dot, the route that sums into a list of
    # 2^14 slots (131 KB): the pass that counts the dot's term pairs
    # refuses it before the list is allocated
    algebra = GrassmannAlgebra(14)
    x = algebra.one
    for v in algebra.gens():
        x = x * (1 + v)
    assert len(x._terms) == 1 << 14
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(TermLimitError) as refused:
            algebra.dot([x], [x], [(0, 0, False)])
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert str(refused.value) == (
        "product would enumerate 268435456 term pairs, over the budget of 10000000"
    )
    assert allocated < 8 << 14


def test_generic_rdet_3_over_the_pair_budget_is_a_clean_exit_2(capsys):
    # the third adjoint step multiplies two ~20,000-term entries
    assert main(["rdet", "--k", "3", "--generic", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: product would enumerate 429981696 term pairs, over the budget of 10000000\n"
    )


def test_integer_result_past_the_digit_limit_is_a_clean_exit_2(capsys, integer_doc):
    start = time.perf_counter()
    assert main(["rdet", "--k", "30", "--input", integer_doc]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: integer sum grew past {sys.get_int_max_str_digits()} digits,"
        " the most the interpreter prints\n"
    )


def test_integer_result_under_the_digit_limit_prints_in_full(capsys, integer_doc, digit_limit):
    digit_limit(sys.int_info.default_max_str_digits)  # 4,300: rdet_14 has 2,467 digits
    assert main(["rdet", "--k", "14", "--input", integer_doc]) == 0
    out = capsys.readouterr().out
    assert len(out) == 2468
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c664d9ebdef387282deae11f45195f4eaa31c53577268f5e80b7c9452f2db41a"
    )


@pytest.mark.parametrize(
    "header, refusal",
    [
        ({"ring": {"kind": "free", "generators": [1]}}, "ring 'generators' must be a list of strings"),
        ({"ring": {"kind": "free", "generators": None}}, "ring 'generators' must be a list of strings"),
        ({"ring": {"kind": "free", "generators": "ab"}}, "ring 'generators' must be a list of strings"),
        ({"ring": {"kind": "grassmann", "rank": None}}, "ring 'rank' must be an integer"),
        ({"ring": {"kind": "grassmann", "rank": 1.5}}, "ring 'rank' must be an integer"),
        ({"ring": {"kind": "grassmann", "rank": "3"}}, "ring 'rank' must be an integer"),
        ({"ring": {"kind": "grassmann", "rank": True}}, "ring 'rank' must be an integer"),
        ({"n": True}, "'n' must be an integer"),
        ({"t": True}, "'t' must be an integer block split"),
        ({"t": 9}, "block split t=9 invalid for n=1"),
        ({"t": -3}, "block split t=-3 invalid for n=1"),
    ],
    ids=[
        "generator not a string", "generators null", "generators a string", "rank null",
        "rank float", "rank string", "rank bool", "n bool", "t bool", "t over n - 1",
        "t negative",
    ],
)
def test_malformed_header_is_a_clean_exit_2(capsys, tmp_path, header, refusal):
    document = {"ring": {"kind": "free", "generators": ["a", "b"]}, "n": 1, "entries": [["1"]]}
    document.update(header)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(document))
    assert main(["sdet", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refusal}\n"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
@pytest.mark.parametrize("field", ["n", "entry"])
def test_a_number_past_the_digit_limit_is_a_clean_exit_2(capsys, tmp_path, field):
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * limit
    if field == "n":
        text = f'{{"ring": {{"kind": "integer"}}, "n": {big}, "entries": [["1"]]}}'
        refusal = "not valid JSON: Exceeds the limit"
    else:
        text = json.dumps({"ring": {"kind": "integer"}, "n": 1, "entries": [[f"2*{big}"]]})
        refusal = f"entry at row 1, column 1: integer over the limit of {limit} digits (at position 2)"
    path = tmp_path / "matrix.json"
    path.write_text(text)
    assert main(["sdet", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {refusal}")
    assert "Traceback" not in captured.err


def test_a_non_ascii_digit_is_a_clean_exit_2(capsys, tmp_path):
    # U+0663 and U+0661 U+0662 are Arabic-Indic digits, not the grammar's [0-9]
    entry = "a^\u0663 + \u0661\u0662"
    document = {"ring": {"kind": "free", "generators": ["a"]}, "n": 1, "entries": [[entry]]}
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(document))
    assert main(["sdet", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    refusal = "entry at row 1, column 1: unexpected character '\u0663' (at position 2)"
    assert captured.err == f"error: {refusal}\n"


def test_s4_requires_2x2(capsys):
    assert main(["s4", "--generic", "3"]) == 2
    assert "2x2" in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv", [["sdet", "--generic", "2"], ["verify", "--suite", "prop4_1"]], ids=["sdet", "verify"]
)
def test_closed_stdout_ends_quietly_with_141(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 141
    # the interpreter's final flush goes to the null device, not the pipe
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "ring, entry, refusal",
    [
        ({"kind": "free", "generators": ["a", "b"]}, "a^99999999", "exponent over"),
        ({"kind": "grassmann", "rank": 1}, "(1+v1)^1000000", "exponent over"),
        ({"kind": "free", "generators": ["a"]}, "(a^1000)^1000", "exponents multiply to over"),
        ({"kind": "grassmann", "rank": 1}, "((1+v1)^1000)^1000", "exponents multiply to over"),
    ],
    ids=["free", "grassmann", "nested free", "nested grassmann"],
)
def test_huge_exponent_is_refused_before_any_work(capsys, tmp_path, ring, entry, refusal):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"ring": ring, "n": 1, "entries": [[entry]]}))
    start = time.perf_counter()
    assert main(["sdet", "--input", str(path)]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{refusal} the limit of 1000" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"ring": {"kind": "integer"}, "n": 1, "entries": [["(" * 250 + "1" + ")" * 250]]}),
        "[" * 1000 + "]" * 1000,
    ],
    ids=["250 nested parentheses", "1000 nested JSON arrays"],
)
def test_deep_nesting_is_a_clean_exit_2(capsys, tmp_path, text):
    path = tmp_path / "matrix.json"
    path.write_text(text)
    assert main(["sdet", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_import_loads_neither_dataclasses_nor_hashlib():
    # every command is its own process, so what importing the CLI loads is
    # paid on every run; a digest is needed only for machine output
    loaded = loaded_in_fresh_interpreter("import ncdet.cli")
    assert "ncdet.cli" in loaded
    unwanted = {"dataclasses", "inspect", "hashlib"} & set(loaded)
    assert not unwanted, f"importing ncdet.cli loaded {sorted(unwanted)}; all it loaded: {loaded}"
    # the package itself loads a module only when one of its names is read
    loaded = loaded_in_fresh_interpreter("import ncdet")
    assert [name for name in loaded if name.startswith("ncdet.")] == []


GRASSMANN_DOC = json.dumps(
    {"ring": {"kind": "grassmann", "rank": 2}, "n": 2, "entries": [["1", "v1"], ["v2", "2"]]}
)


def _modules(names: str) -> set:
    return {f"ncdet.{name}" for name in names.split()}


_PACKAGE = _modules("charpoly cli determinants freealg grassmann matrices parsing perms rings verify")
_HARNESS = _modules("verify charpoly perms")
_ALGEBRAS = _modules("freealg grassmann")
_CORE = _modules("rings matrices determinants")
# standard-library modules: argparse reads only help, usage and errors, and
# a record is the only writer of json and hashlib
_PARSER = {"argparse", "gettext"}
_RECORD = {"json", "hashlib"}


@pytest.mark.parametrize(
    "run, loads, skips",
    [
        (["sdet", "--input", "INTEGER"], _CORE | _modules("parsing"), _HARNESS | _ALGEBRAS | _PARSER),
        (
            ["sdet", "--generic", "2"],
            _CORE | _modules("freealg"),
            _PARSER | _RECORD | {"locale", "shutil", "bz2", "lzma"},
        ),
        (
            ["preadj", "--generic", "2"],
            _modules("freealg"),
            _HARNESS | _modules("parsing grassmann") | _PARSER | _RECORD,
        ),
        (["preadj", "--generic", "2", "--output", "machine"], _RECORD, _PARSER | _modules("parsing")),
        (
            ["ldet", "--k", "2", "--input", "GRASSMANN"],
            _modules("grassmann"),
            _HARNESS | _modules("freealg") | _PARSER,
        ),
        (
            ["charpoly", "--input", "INTEGER"],
            _modules("charpoly"),
            _ALGEBRAS | _modules("verify perms") | _PARSER,
        ),
        (["newton", "--generic", "3"], _modules("charpoly"), _modules("verify") | _PARSER),
        (["s4", "--generic", "2"], _modules("charpoly"), _modules("verify") | _PARSER),
        (["verify", "--suite", "thm3_1", "--n", "2"], _modules("verify"), _PARSER | _RECORD),
        (["sdet", "-h"], {"argparse"}, _modules("freealg parsing")),
        (
            "import ncdet\nncdet.symmetric_determinant(ncdet.Matrix(ncdet.IntegerRing(), [[1, 2], [3, 4]]))",
            _CORE,
            _PACKAGE - _CORE | _PARSER | _RECORD,
        ),
    ],
    ids=[
        "sdet", "sdet-generic", "preadj", "preadj-machine", "ldet-grassmann", "charpoly", "newton", "s4",
        "verify", "sdet-help", "library-sdet",
    ],
)
def test_each_command_loads_only_the_modules_it_runs(integer_doc, tmp_path, run, loads, skips):
    """A row runs an ncdet command (argv, where INTEGER and GRASSMANN name a
    document over that ring) or Python code that uses the package."""
    if isinstance(run, str):
        code = run
    else:
        grassmann_doc = tmp_path / "grassmann.json"
        grassmann_doc.write_text(GRASSMANN_DOC)
        documents = {"INTEGER": integer_doc, "GRASSMANN": str(grassmann_doc)}
        code = cli_code([documents.get(word, word) for word in run])
    loaded = set(loaded_in_fresh_interpreter(code))
    assert loads <= loaded, sorted(loaded)
    assert not skips & loaded, f"{run} loaded {sorted(skips & loaded)}"


# The help and argument-error text of the parser that declared every
# subcommand's flags up front; Python 3.10 to 3.13 print it alike at 80
# columns, the width argparse reads from $COLUMNS.
HELP_GOLDEN = json.loads((Path(__file__).parent / "cli_help_golden.json").read_text())


@pytest.mark.parametrize("pin", HELP_GOLDEN, ids=lambda pin: " ".join(pin["argv"]))
def test_help_and_argument_errors_are_byte_identical(capsys, monkeypatch, pin):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(pin["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (pin["code"], pin["stdout"], pin["stderr"])


# The flags each command declares, written out here so that the reader's
# own table is not its test's spec.
_MATRIX_FLAGS = {"--input", "--generic", "--output"}
_DECLARED = {
    "sdet": _MATRIX_FLAGS,
    "preadj": _MATRIX_FLAGS,
    "rdet": _MATRIX_FLAGS | {"--k"},
    "ldet": _MATRIX_FLAGS | {"--k"},
    "charpoly": _MATRIX_FLAGS | {"--k", "--side"},
    "newton": _MATRIX_FLAGS,
    "s4": _MATRIX_FLAGS,
    "verify": {"--suite", "--n", "--k", "--t", "--rank", "--trials", "--seed", "--output"},
}
_INTS = ("2", "3", "0", "+2", " 4", "٣", "1_0")
# values that convert for a flag; other flags take the ints
_GOOD = {
    "--input": ("m.json", "verify", ""),
    "--suite": ("all", "thm3_1"),
    "--output": ("text", "machine"),
    "--side": ("right", "left"),
}
_BAD = ("-3", "-1e3", "1.5", "x", "-", "--", "-h", "--k", "text", "up", "sdet", "verify")
# second sources, abbreviations, ``--flag=value``, help and stray words
_ODD_FLAGS = (
    "--input", "--generic", "--suite", "--gen", "--in", "--out", "--s", "--su", "--tri", "--ran",
    "-h", "--help", "--", "-k", "--bogus", "--generic=2", "--k=2", "--output=machine", "--suite=all",
    "sdet", "verify",
)


@st.composite
def _argv(draw):
    """A command, then mostly its source and its own flags with values that
    mostly convert, and now and then an undeclared or abbreviated flag, a
    second source, a bad value, a repeat or a stray word."""
    command = draw(st.sampled_from((*_DECLARED, "bogus", "-h")))
    # the source is drawn once; a second one is an odd flag
    declared = sorted(_DECLARED.get(command, _MATRIX_FLAGS) - {"--input", "--generic", "--suite"})
    argv = [command]
    flags = [draw(st.sampled_from(declared) if draw(st.integers(0, 3)) else st.sampled_from(_ODD_FLAGS))
             for _ in range(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 3)):
        flags.insert(0, "--suite" if command == "verify" else draw(st.sampled_from(("--input", "--generic"))))
    for flag in flags:
        good = st.sampled_from(_GOOD.get(flag, _INTS))
        argv += [flag, draw(good if draw(st.integers(0, 3)) else st.sampled_from(_BAD) | st.text(max_size=3))]
    if not draw(st.integers(0, 3)):
        argv.append(draw(st.sampled_from(_BAD + _INTS)))
    return argv


def _argparse_namespace(argv):
    """What ``argparse`` makes of argv: its fields, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser(argv).parse_args(argv))
        except SystemExit:
            return None


def _well_formed(argv) -> bool:
    """The shape the reader takes, before argparse checks the values."""
    flags, values = argv[1::2], argv[2::2]
    return (
        len(argv) % 2 == 1
        and set(flags) <= _DECLARED.get(argv[0], set())
        and len(set(flags)) == len(flags)
        and not any(value.startswith("-") for value in values)
    )


@settings(max_examples=400, deadline=None)
@given(argv=_argv())
# argparse takes the first five (a negative number, a lone dash, a repeat,
# an abbreviation, ``--flag=value``) and refuses the last three (two
# sources, a bad int, a bad choice); the reader declines all eight
@example(argv=["sdet", "--generic", "-3"])
@example(argv=["sdet", "--input", "-"])
@example(argv=["sdet", "--input", "a.json", "--input", "b.json"])
@example(argv=["sdet", "--gen", "2"])
@example(argv=["sdet", "--generic=2"])
@example(argv=["sdet", "--input", "m.json", "--generic", "2"])
@example(argv=["rdet", "--k", "x", "--generic", "2"])
@example(argv=["charpoly", "--side", "up", "--generic", "2"])
def test_the_argv_reader_returns_argparse_fields_or_declines(argv):
    """On a well-formed argv that argparse accepts, the reader returns its
    fields; on any other argv it declines, and argparse reads it."""
    expected = _argparse_namespace(argv)
    read = cli._read_argv(argv)
    if expected is not None and _well_formed(argv):
        assert read is not None, argv
        assert vars(read) == expected, argv
    else:
        assert read is None, argv

