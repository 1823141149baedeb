"""Command-line interface.

Subcommands compute on a matrix taken either from a document file
(``--input``) or synthesized as the generic n x n matrix of distinct free
generators (``--generic N``).  One table, ``_MATRIX_COMMANDS``, declares
each matrix subcommand once, and ``_flags`` reads it for both the argv
reader and the parser.  ``newton`` applies the formula of its matrix's
own size.  The verify options are the fields of ``verify.VerifyOptions``;
``--suite all`` takes any of them, and a single suite refuses one it
never reads (exit 2).

``_read_argv`` reads a well-formed argv, a command and then ``--flag
value`` pairs, and returns the fields argparse would.  Every other argv
(help, abbreviations, ``--flag=value``, repeats, bad values, unknown
words) goes to argparse, which this module imports only then, so argparse
alone writes help, usage and error text.

Every command is its own process, which compiles each module it imports,
so the imports follow the work.  This module imports the determinant,
matrix and ring modules.  Only ``--input`` imports the document parser,
which imports the one algebra its ring header names; ``--generic``
imports the free algebra through ``generic_matrix``.  The ``charpoly``,
``newton`` and ``s4`` commands import ``charpoly`` when they run, and
``verify`` is imported only when the command is ``verify``: for the
parser, when the first word of argv that is not a flag is ``verify``,
which is also the only time it declares the verify flags.  Help and error
text are the same as if every flag were always declared.  The refusals
that involve no document (``--generic 0``, ``newton`` outside n = 2, 3,
``s4`` outside n = 2) raise a plain ``ValueError``; the document parser's
``DocumentError`` and ``ParseError`` are ``ValueError``s too, so each
exits 2 with its text.

``--output machine`` switches to one JSON record per result, which one
function, ``_print_record``, writes for matrix commands and verify checks
alike, with the fields operation, input_digest, result_canonical_text and
elapsed_ms.  The input digest is the SHA-256 of the document's bytes as
read (a file is read once, and those bytes are both parsed and digested),
of ``generic:N``, or of the verify request; it is computed only when a
machine record prints it, so text output loads neither ``hashlib`` nor
``json``.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 input error or a result over the term budget, 141 standard output
closed by its reader (128 + SIGPIPE, as a shell reports a process killed
by that signal).
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .determinants import (
    left_determinant,
    preadjoint,
    right_determinant,
    symmetric_determinant,
)
from .matrices import Matrix, generic_matrix
from .rings import TermLimitError


def _charpoly(A, args):
    from .charpoly import characteristic_polynomial

    return f"charpoly_{args.side}_{args.k}", characteristic_polynomial(A, args.side, args.k)


def _newton(A, args):
    if A.n not in (2, 3):
        raise ValueError("the Newton trace formulas cover n = 2 and n = 3")
    from .charpoly import newton_sdet_2, newton_sdet_3

    return f"newton_{A.n}", (newton_sdet_2 if A.n == 2 else newton_sdet_3)(A)


def _s4(A, args):
    if A.n != 2:
        raise ValueError("s4 expects a 2x2 matrix (four entries)")
    from .charpoly import standard_polynomial_4

    (a, b), (c, d) = A.rows
    return "s4", standard_polynomial_4(a, b, c, d)


_K = {"--k": {"type": int, "default": 1}}

# name: (help text, own arguments, (matrix, args) -> (operation, result)).
# Each call finds the function it names as it stands then, wrapped or
# patched: the determinants in this module's globals, and the charpoly
# functions as attributes of ``charpoly``, which their deferred import
# reads at call time.
_MATRIX_COMMANDS = {
    "sdet": ("symmetric determinant", {}, lambda A, a: ("sdet", symmetric_determinant(A))),
    "preadj": ("preadjoint matrix", {}, lambda A, a: ("preadj", preadjoint(A))),
    "rdet": ("k-th right determinant", _K, lambda A, a: (f"rdet_{a.k}", right_determinant(A, a.k))),
    "ldet": ("k-th left determinant", _K, lambda A, a: (f"ldet_{a.k}", left_determinant(A, a.k))),
    "charpoly": (
        "k-th characteristic polynomial of zI - A",
        {"--side": {"choices": ("right", "left"), "default": "right"}, **_K},
        _charpoly,
    ),
    "newton": ("symmetric Newton trace formula (n = 2 or 3)", {}, _newton),
    "s4": ("standard polynomial S4 on the entries of a 2x2 matrix", {}, _s4),
}

# a matrix command takes exactly one of these
_SOURCE = {
    "--input": {"metavar": "PATH", "help": "matrix document file"},
    "--generic": {"type": int, "metavar": "N", "help": "use the generic NxN matrix of distinct free generators"},
}
_OUTPUT = {"--output": {"choices": ("text", "machine"), "default": "text", "help": "output format"}}


def _flags(command: str) -> dict:
    """Each flag of a command and its ``add_argument`` settings, in the
    order its help lists them."""
    if command != "verify":
        return {**_SOURCE, **_OUTPUT, **_MATRIX_COMMANDS[command][1]}
    # the verify flags come from the harness, loaded only when it runs
    from .verify import SUITES, VerifyOptions

    suite = {"required": True, "help": f"one of: {', '.join((*SUITES, 'all'))}"}
    options = {
        f"--{option}": {"type": int, "default": VerifyOptions._defaults[option]}
        for option in VerifyOptions.__slots__
    }
    return {"--suite": suite, **options, **_OUTPUT}


def _read_argv(argv):
    """The namespace argparse returns for a well-formed argv, or None.

    Well-formed is a command, then ``--flag value`` pairs: each flag
    declared for the command and given once, no value starting with ``-``,
    each value of its flag's type and among its choices, and exactly one
    of ``--input`` and ``--generic`` (``--suite`` for verify).  argparse
    reads every other argv, so help, usage and errors are its alone.
    """
    command = argv[0] if argv else None
    if (command not in _MATRIX_COMMANDS and command != "verify") or len(argv) % 2 == 0:
        return None
    flags = _flags(command)
    values = {}
    for flag, word in zip(argv[1::2], argv[2::2]):
        settings = flags.get(flag)
        if settings is None or flag in values or word.startswith("-"):
            return None
        try:
            value = values[flag] = settings.get("type", str)(word)
        except ValueError:
            return None
        if value not in settings.get("choices", (value,)):
            return None
    # no command declares both a source and --suite
    if len(values.keys() & {"--input", "--generic", "--suite"}) != 1:
        return None
    fields = {flag[2:]: values.get(flag, settings.get("default")) for flag, settings in flags.items()}
    return SimpleNamespace(command=command, **fields)


def _build_parser(argv):
    import argparse

    parser = argparse.ArgumentParser(
        prog="ncdet",
        description="Exact determinant theory for matrices over noncommutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _MATRIX_COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        for flag, settings in _flags(name).items():
            (source if flag in _SOURCE else cmd).add_argument(flag, **settings)
    ver = sub.add_parser("verify", help="run a theorem verification suite")
    # only a verify argv pays for the harness that declares its flags
    verify = next((word for word in argv if not word.startswith("-")), None) == "verify"
    for flag, settings in (_flags("verify") if verify else _OUTPUT).items():
        ver.add_argument(flag, **settings)
    return parser


def _load_input(args) -> tuple[Matrix, bytes]:
    """The input matrix and the bytes its digest is taken from."""
    if args.generic is not None:
        if args.generic < 1:
            raise ValueError("--generic needs a positive dimension")
        _, matrix = generic_matrix(args.generic)
        return matrix, f"generic:{args.generic}".encode()
    from .parsing import loads_matrix

    with open(args.input, "rb") as file:
        data = file.read()
    _, matrix = loads_matrix(data.decode("utf-8"))
    return matrix, data


def _digest(source: bytes) -> str:
    # imported here: only a machine record prints a digest
    import hashlib

    return hashlib.sha256(source).hexdigest()


def _print_record(operation: str, digest: str, text: str, elapsed_ms: float):
    import json

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
    from .verify import VerifyOptions, run_verify

    options = {option: getattr(args, option) for option in VerifyOptions.__slots__}
    report = run_verify(args.suite, **options)
    if args.output == "machine":
        import json

        digest = _digest(json.dumps({"suite": args.suite, **options}, sort_keys=True).encode())
        for check in report.checks:
            text = "pass" if check.passed else f"fail: {check.detail}"
            _print_record(f"verify:{report.suite}:{check.name}", digest, text, check.elapsed_ms)
    else:
        print(report)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser(argv).parse_args(argv)
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
    # a DocumentError or ParseError of the document parser is a ValueError
    except (ValueError, OSError, TermLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
