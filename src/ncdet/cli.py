"""Command-line interface.

Subcommands compute on a matrix taken either from a document file
(``--input``) or synthesized as the generic n x n matrix of distinct free
generators (``--generic N``).  One table, ``_MATRIX_COMMANDS``, declares
each matrix subcommand once, and the parser and the runner both read it.
``newton`` applies the formula of its matrix's own size.  The verify
options are the fields of ``verify.VerifyOptions``; ``--suite all`` takes
any of them, and a single suite refuses one it never reads (exit 2).

``--output machine`` switches to one JSON record per result, which one
function, ``_print_record``, writes for matrix commands and verify checks
alike, with the fields operation, input_digest, result_canonical_text and
elapsed_ms.  The input digest is the SHA-256 of the document's bytes as
read (a file is read once, and those bytes are both parsed and digested),
of ``generic:N``, or of the verify request; it is computed only when a
machine record prints it, so text output never loads ``hashlib``.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 input error or a result over the term budget, 141 standard output
closed by its reader (128 + SIGPIPE, as a shell reports a process killed
by that signal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .charpoly import (
    characteristic_polynomial,
    newton_sdet_2,
    newton_sdet_3,
    standard_polynomial_4,
)
from .determinants import (
    left_determinant,
    preadjoint,
    right_determinant,
    symmetric_determinant,
)
from .matrices import Matrix
from .parsing import DocumentError, ParseError, loads_matrix
from .rings import TermLimitError
from .verify import SUITES, VerifyOptions, generic_matrix, run_verify


def _newton(A, args):
    if A.n not in (2, 3):
        raise DocumentError("the Newton trace formulas cover n = 2 and n = 3")
    return f"newton_{A.n}", (newton_sdet_2 if A.n == 2 else newton_sdet_3)(A)


def _s4(A, args):
    if A.n != 2:
        raise DocumentError("s4 expects a 2x2 matrix (four entries)")
    (a, b), (c, d) = A.rows
    return "s4", standard_polynomial_4(a, b, c, d)


_K = {"--k": {"type": int, "default": 1}}

# name: (help text, own arguments, (matrix, args) -> (operation, result)).
# The functions name the package's functions, so each call finds them in
# this module's globals as they stand then, wrapped or patched.
_MATRIX_COMMANDS = {
    "sdet": ("symmetric determinant", {}, lambda A, a: ("sdet", symmetric_determinant(A))),
    "preadj": ("preadjoint matrix", {}, lambda A, a: ("preadj", preadjoint(A))),
    "rdet": ("k-th right determinant", _K, lambda A, a: (f"rdet_{a.k}", right_determinant(A, a.k))),
    "ldet": ("k-th left determinant", _K, lambda A, a: (f"ldet_{a.k}", left_determinant(A, a.k))),
    "charpoly": (
        "k-th characteristic polynomial of zI - A",
        {"--side": {"choices": ("right", "left"), "default": "right"}, **_K},
        lambda A, a: (f"charpoly_{a.side}_{a.k}", characteristic_polynomial(A, a.side, a.k)),
    ),
    "newton": ("symmetric Newton trace formula (n = 2 or 3)", {}, _newton),
    "s4": ("standard polynomial S4 on the entries of a 2x2 matrix", {}, _s4),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdet",
        description="Exact determinant theory for matrices over noncommutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = {"choices": ("text", "machine"), "default": "text", "help": "output format"}
    for name, (help_text, own_arguments, _) in _MATRIX_COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", metavar="PATH", help="matrix document file")
        source.add_argument(
            "--generic",
            type=int,
            metavar="N",
            help="use the generic NxN matrix of distinct free generators",
        )
        for flag, settings in {"--output": output, **own_arguments}.items():
            cmd.add_argument(flag, **settings)

    ver = sub.add_parser("verify", help="run a theorem verification suite")
    ver.add_argument("--suite", required=True, help=f"one of: {', '.join((*SUITES, 'all'))}")
    for option in VerifyOptions.__slots__:
        ver.add_argument(f"--{option}", type=int, default=VerifyOptions._defaults[option])
    ver.add_argument("--output", **output)
    return parser


def _load_input(args) -> tuple[Matrix, bytes]:
    """The input matrix and the bytes its digest is taken from."""
    if args.generic is not None:
        if args.generic < 1:
            raise DocumentError("--generic needs a positive dimension")
        _, matrix = generic_matrix(args.generic)
        return matrix, f"generic:{args.generic}".encode()
    data = Path(args.input).read_bytes()
    _, matrix = loads_matrix(data.decode("utf-8"))
    return matrix, data


def _digest(source: bytes) -> str:
    # imported here: only a machine record prints a digest
    import hashlib

    return hashlib.sha256(source).hexdigest()


def _print_record(operation: str, digest: str, text: str, elapsed_ms: float):
    record = {
        "operation": operation,
        "input_digest": digest,
        "result_canonical_text": text,
        "elapsed_ms": round(elapsed_ms, 3),
    }
    print(json.dumps(record))


def _run_matrix_command(args) -> int:
    matrix, digest_source = _load_input(args)
    _, _, compute = _MATRIX_COMMANDS[args.command]
    start = time.perf_counter()
    operation, result = compute(matrix, args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    text = str(result)
    if args.output == "machine":
        _print_record(operation, _digest(digest_source), text, elapsed_ms)
    else:
        print(text)
    return 0


def _run_verify_command(args) -> int:
    options = {option: getattr(args, option) for option in VerifyOptions.__slots__}
    report = run_verify(args.suite, **options)
    if args.output == "machine":
        digest = _digest(json.dumps({"suite": args.suite, **options}, sort_keys=True).encode())
        for check in report.checks:
            text = "pass" if check.passed else f"fail: {check.detail}"
            _print_record(f"verify:{report.suite}:{check.name}", digest, text, check.elapsed_ms)
    else:
        print(report)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            code = _run_verify_command(args)
        else:
            code = _run_matrix_command(args)
        # a reader that closed the pipe early shows here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: stop quietly, as a process killed by SIGPIPE
        # would, and give the interpreter's last flush somewhere to write
        sys.stdout = open(os.devnull, "w")
        return 141
    except (DocumentError, ParseError, ValueError, OSError, TermLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
