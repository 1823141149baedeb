import io
import json
import os
import sys
import time

import pytest

from ncdet import FreeAlgebra, Matrix, cli, standard_polynomial_4
from ncdet.cli import main
from ncdet.verify import generic_matrix, generic_names


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


def test_newton_size_mismatch_is_input_error(capsys, integer_doc):
    assert main(["newton", "--n", "3", "--input", integer_doc]) == 2
    assert "does not match" in capsys.readouterr().err


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
        algebra = FreeAlgebra(generic_names(n), term_limit=35)
        gens = algebra.gens()
        return algebra, Matrix(algebra, [gens[n * i : n * i + n] for i in range(n)])

    monkeypatch.setattr(cli, "generic_matrix", small_budget)
    assert main(["sdet", "--generic", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sum grew to 36 terms, over the budget of 35")


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
