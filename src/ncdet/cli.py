"""Command-line interface.

Subcommands compute on a matrix taken either from a document file
(``--input``) or synthesized as the generic n x n matrix of distinct free
generators (``--generic N``).  ``--output machine`` switches to one JSON
record per result with the fields operation, input_digest,
result_canonical_text and elapsed_ms.  The input digest is the SHA-256 of
the document's bytes as read (a file is read once, and those bytes are
both parsed and digested), of ``generic:N``, or of the verify request; it
is computed only when a machine record prints it, so text output never
loads ``hashlib``.

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
from .verify import SUITES, generic_matrix, run_verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdet",
        description="Exact determinant theory for matrices over noncommutative rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", metavar="PATH", help="matrix document file")
        source.add_argument(
            "--generic",
            type=int,
            metavar="N",
            help="use the generic NxN matrix of distinct free generators",
        )
        cmd.add_argument(
            "--output", choices=("text", "machine"), default="text", help="output format"
        )
        return cmd

    matrix_command("sdet", "symmetric determinant")
    matrix_command("preadj", "preadjoint matrix")
    rdet = matrix_command("rdet", "k-th right determinant")
    rdet.add_argument("--k", type=int, default=1)
    ldet = matrix_command("ldet", "k-th left determinant")
    ldet.add_argument("--k", type=int, default=1)
    chp = matrix_command("charpoly", "k-th characteristic polynomial of zI - A")
    chp.add_argument("--side", choices=("right", "left"), default="right")
    chp.add_argument("--k", type=int, default=1)
    newton = matrix_command("newton", "symmetric Newton trace formula (n = 2 or 3)")
    newton.add_argument("--n", type=int, choices=(2, 3), help="formula size (defaults to the matrix size)")
    matrix_command("s4", "standard polynomial S4 on the entries of a 2x2 matrix")

    ver = sub.add_parser("verify", help="run a theorem verification suite")
    ver.add_argument("--suite", required=True, help=f"one of: {', '.join((*SUITES, 'all'))}")
    ver.add_argument("--n", type=int)
    ver.add_argument("--k", type=int)
    ver.add_argument("--t", type=int)
    ver.add_argument("--rank", type=int)
    ver.add_argument("--trials", type=int)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument(
        "--output", choices=("text", "machine"), default="text", help="output format"
    )
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


def _emit(args, operation: str, digest_source: bytes, text: str, elapsed_ms: float):
    if args.output == "machine":
        record = {
            "operation": operation,
            "input_digest": _digest(digest_source),
            "result_canonical_text": text,
            "elapsed_ms": round(elapsed_ms, 3),
        }
        print(json.dumps(record))
    else:
        print(text)


def _run_matrix_command(args) -> int:
    matrix, digest_source = _load_input(args)
    start = time.perf_counter()
    if args.command == "sdet":
        result = symmetric_determinant(matrix)
        operation = "sdet"
    elif args.command == "preadj":
        result = preadjoint(matrix)
        operation = "preadj"
    elif args.command == "rdet":
        result = right_determinant(matrix, args.k)
        operation = f"rdet_{args.k}"
    elif args.command == "ldet":
        result = left_determinant(matrix, args.k)
        operation = f"ldet_{args.k}"
    elif args.command == "charpoly":
        result = characteristic_polynomial(matrix, args.side, args.k)
        operation = f"charpoly_{args.side}_{args.k}"
    elif args.command == "newton":
        size = args.n if args.n is not None else matrix.n
        if size != matrix.n:
            raise DocumentError(f"--n {size} does not match the {matrix.n}x{matrix.n} input")
        if size == 2:
            result = newton_sdet_2(matrix)
        elif size == 3:
            result = newton_sdet_3(matrix)
        else:
            raise DocumentError("the Newton trace formulas cover n = 2 and n = 3")
        operation = f"newton_{size}"
    elif args.command == "s4":
        if matrix.n != 2:
            raise DocumentError("s4 expects a 2x2 matrix (four entries)")
        (a, b), (c, d) = matrix.rows
        result = standard_polynomial_4(a, b, c, d)
        operation = "s4"
    else:  # pragma: no cover - argparse guards this
        raise DocumentError(f"unknown command {args.command}")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    _emit(args, operation, digest_source, str(result), elapsed_ms)
    return 0


def _run_verify_command(args) -> int:
    report = run_verify(
        args.suite,
        n=args.n,
        k=args.k,
        t=args.t,
        rank=args.rank,
        trials=args.trials,
        seed=args.seed,
    )
    if args.output == "machine":
        request = {
            "suite": args.suite,
            "n": args.n,
            "k": args.k,
            "t": args.t,
            "rank": args.rank,
            "trials": args.trials,
            "seed": args.seed,
        }
        digest = _digest(json.dumps(request, sort_keys=True).encode())
        for check in report.checks:
            record = {
                "operation": f"verify:{report.suite}:{check.name}",
                "input_digest": digest,
                "result_canonical_text": "pass" if check.passed else f"fail: {check.detail}",
                "elapsed_ms": round(check.elapsed_ms, 3),
            }
            print(json.dumps(record))
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
