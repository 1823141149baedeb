"""The benchmark's workloads: seeded inputs, the fixed operation list of each,
and the check of every result.

A workload is built from a seed and from the imported ``ncdet`` package.
Operations look up every ncdet function at call time, so a tracer installed
after the build sees the calls.  Each check runs outside the timed span and
returns None for a correct result or ``(failure kind, detail)``.

Why each workload exists (the layers it loads):

- ``generic_symbolic``: results of 10^4 to 6*10^4 terms put the time in free
  algebra accumulation and term-pair loops; seeded random matrices add the
  cancellation and shared words that generic entries lack.
- ``grassmann_trials``: thousands of small products, so per-call overhead in
  matrices, grassmann and CentralPoly dominates; the same L0/L1 code as
  ``generic_symbolic`` in the opposite regime.
- ``integer_exact``: native int arithmetic, so nearly all time is the
  permutation-pair enumeration of the determinant core; bypasses the
  free and Grassmann algebras.
- ``cli_verify``: ``python -m ncdet`` subprocesses, the only workload that
  runs the CLI, document parsing and rendering, the verify harness and
  interpreter start-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("generic_symbolic", "grassmann_trials", "integer_exact", "cli_verify")

# Failures the code had when the benchmark was defined, by input label and
# failure kind.  They are counted as failures; only a failure not listed
# here makes a run incorrect.  The over-budget request should end in a clean
# exit 2 ("error: ..."), but escapes as a TermLimitError traceback.
KNOWN_FAILURES = {
    "cli rdet --k 3 --generic 3": "traceback",
}

OP_BUDGET_S = 30.0
CLI_BUDGET_S = 60.0

FREE_LETTERS = ("a", "b", "c")
SMALL_NONZERO = tuple(c for c in range(-3, 4) if c)
# Wide enough that coefficients of Grassmann products almost never cancel by
# accident, so a seed does not change how many terms the products keep.
WIDE_NONZERO = tuple(c for c in range(-99, 100) if c)


class OpTimeout(BaseException):
    """An operation ran past its time budget.

    A BaseException, so that the ``except Exception`` boundaries inside the
    program (the verify harness records crashed checks) do not swallow it.
    """


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str] | None]
    budget_s: float = OP_BUDGET_S
    in_process: bool = True  # False: run() enforces its own budget
    argv: tuple[str, ...] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    input_digest: str


@dataclass
class CliOutcome:
    returncode: int
    stdout: str
    stderr: str
    timed_out: bool = False


def build(name: str, seed: int, nc, *, int_type=int, scratch: Path | None = None) -> Workload:
    """Build one workload; the same seed always gives the same inputs.

    ``int_type`` builds integer entries (a traced run passes a counting int).
    ``scratch`` is the directory for the documents of ``cli_verify``.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    builder = _Builder(nc, rng)
    if name == "generic_symbolic":
        _generic_symbolic(builder)
    elif name == "grassmann_trials":
        _grassmann_trials(builder)
    elif name == "integer_exact":
        _integer_exact(builder, int_type)
    else:
        if scratch is None:
            raise ValueError("cli_verify needs a scratch directory for its documents")
        _cli_verify(builder, seed, scratch)
    labels = [op.label for op in builder.ops]
    if len(set(labels)) != len(labels):
        raise AssertionError("operation labels must be unique within a workload")
    digest = hashlib.sha256("\n".join(builder.inputs).encode("utf-8")).hexdigest()
    return Workload(name=name, ops=builder.ops, input_digest=digest)


class _Builder:
    def __init__(self, nc, rng):
        self.nc = nc
        self.rng = rng
        self.ops: list[Op] = []
        self.inputs: list[str] = []

    def add(self, kind, label, run, check, **extra):
        self.ops.append(Op(kind=kind, label=label, run=run, check=check, **extra))

    def note_input(self, label, matrix_or_text):
        self.inputs.append(f"{label}\n{matrix_or_text}")


# ------------------------------------------------------------ shared helpers


def canonical(result) -> str:
    """Canonical text of an operation result (what the CLI would print)."""
    lambdas = getattr(result, "lambdas", None)
    if lambdas is not None:  # a Cayley--Hamilton witness
        parts = ["; ".join(str(x) for x in lambdas)]
        parts.extend(str(d) for d in result.right_defects)
        parts.extend(str(d) for d in result.left_defects)
        return "\n".join(parts)
    return str(result)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@cache
def expected_digests() -> dict:
    """Canonical-text digests of the seed-independent generic results."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _trace_of_product(X, Y):
    """tr(X Y) by the plain double sum, independent of ncdet's helpers."""
    total = X.ring.zero
    for i in range(X.n):
        for j in range(X.n):
            total = total + X.rows[i][j] * Y.rows[j][i]
    return total


def _is_scalar_matrix(M, value) -> bool:
    for i in range(M.n):
        for j in range(M.n):
            entry = M.rows[i][j]
            if i == j:
                if entry != value:
                    return False
            elif not entry.is_zero():
                return False
    return True


def _is_even(x) -> bool:
    return all(mask.bit_count() % 2 == 0 for mask in x._terms)


def _leading_coefficient(n: int, k: int) -> int:
    """n ((n-1)!)^(1 + n + ... + n^(k-1)): top coefficient of p_{A,k}."""
    return n * math.factorial(n - 1) ** sum(n**i for i in range(k))



def _mismatch(label):
    return ("mismatch", label)


# ---------------------------------------------------------- generic_symbolic


# (label, kind, n, call) for the seed-independent generic inputs; the
# canonical text of every result is pinned in expected.json.
GENERIC_CASES = (
    ("sdet generic n=4", "sdet", 4, lambda nc, A: nc.symmetric_determinant(A)),
    ("sdet generic n=5", "sdet", 5, lambda nc, A: nc.symmetric_determinant(A)),
    ("preadjoint generic n=4", "preadjoint", 4, lambda nc, A: nc.preadjoint(A)),
    ("preadjoint generic n=5", "preadjoint", 5, lambda nc, A: nc.preadjoint(A)),
    ("rdet_2 generic n=3", "rdet_2", 3, lambda nc, A: nc.right_determinant(A, 2)),
    ("ldet_2 generic n=3", "ldet_2", 3, lambda nc, A: nc.left_determinant(A, 2)),
    ("ch_witness generic n=3", "ch_witness", 3, lambda nc, A: nc.cayley_hamilton_witness(A)),
    ("charpoly right k=1 generic n=3", "charpoly_1", 3,
     lambda nc, A: nc.characteristic_polynomial(A, "right", 1)),
    ("charpoly left k=1 generic n=3", "charpoly_1", 3,
     lambda nc, A: nc.characteristic_polynomial(A, "left", 1)),
)


def _digest_check(want: dict):
    def check(result):
        text = canonical(result)
        if sha256_text(text) != want["sha256"]:
            return _mismatch(f"canonical text digest differs ({len(text)} bytes)")
        return None

    return check


def _shape(*key) -> random.Random:
    """Seed-independent generator of one input's term pattern.

    The pattern (which words or wedge monomials each entry holds) fixes how
    many term pairs every operation multiplies.  The workload seed relabels
    the generators and draws the coefficients, so each seed gives other
    inputs but the same amount of work, and the spread between seeds
    measures the program rather than the draw.
    """
    return random.Random("shape:" + ":".join(str(k) for k in key))


def _random_free_matrix(nc, rng, n, shape):
    """Diagonal entries hold one word, the others two, each of length 1-2."""
    letters = rng.sample(range(len(FREE_LETTERS)), len(FREE_LETTERS))
    algebra = nc.FreeAlgebra(FREE_LETTERS)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            while len(terms) < (1 if i == j else 2):
                length = shape.randint(1, 2)
                word = tuple(letters[shape.randrange(len(FREE_LETTERS))] for _ in range(length))
                terms.setdefault(word, rng.choice(SMALL_NONZERO))
            row.append(nc.FreePoly(algebra, terms))
        rows.append(row)
    return nc.Matrix(algebra, rows)


def _generic_symbolic(b: _Builder):
    nc = b.nc
    expected = expected_digests()["generic_symbolic"]
    for label, kind, n, call in GENERIC_CASES:
        _, A = nc.generic_matrix(n)
        b.note_input(label, A)
        b.add(kind, label, lambda A=A, call=call: call(nc, A), _digest_check(expected[label]))

    for n, count in ((3, 3), (4, 3)):
        for idx in range(count):
            A = _random_free_matrix(nc, b.rng, n, _shape("free", n, idx))
            name = f"free n={n} #{idx}"
            b.note_input(name, A)
            # preadjoint_via_minors (signed sdet of minors) is an independent
            # route to A*; tr(A A*) = sdet = tr(A* A) links it to sdet.
            ref = cache(lambda A=A: nc.preadjoint_via_minors(A))

            def check_sdet(s, A=A, ref=ref):
                if s != _trace_of_product(A, ref()) or s != _trace_of_product(ref(), A):
                    return _mismatch("sdet != tr(A A*) or tr(A* A)")
                return None

            def check_preadjoint(P, A=A, ref=ref):
                if P != ref():
                    return _mismatch("A* differs from the minor formula")
                if _trace_of_product(A, P) != _trace_of_product(P, A):
                    return _mismatch("tr(A A*) != tr(A* A)")
                return None

            def check_rdet(r, A=A, ref=ref):
                return None if r == _trace_of_product(A, ref()) else _mismatch("rdet_1 != tr(A A*)")

            b.add("sdet", f"sdet {name}", lambda A=A: nc.symmetric_determinant(A), check_sdet)
            b.add("preadjoint", f"preadjoint {name}", lambda A=A: nc.preadjoint(A), check_preadjoint)
            b.add("rdet_1", f"rdet_1 {name}", lambda A=A: nc.right_determinant(A, 1), check_rdet)


# ---------------------------------------------------------- grassmann_trials


def _grassmann_entry(nc, algebra, rng, shape, relabel, constant, count, sizes):
    """A nonzero constant (when asked) plus ``count`` distinct wedge terms."""
    terms = {0: rng.choice(WIDE_NONZERO)} if constant else {}
    while len(terms) < count + (1 if constant else 0):
        bits = shape.sample(range(algebra.rank), shape.choice(sizes))
        terms.setdefault(sum(1 << relabel[bit] for bit in bits), rng.choice(WIDE_NONZERO))
    return nc.GrassmannElem(algebra, terms)


def _random_grassmann_matrix(nc, algebra, rng, n, shape):
    relabel = rng.sample(range(algebra.rank), algebra.rank)
    rows = [
        [_grassmann_entry(nc, algebra, rng, shape, relabel, True, 2, (1, 2, 3)) for _ in range(n)]
        for _ in range(n)
    ]
    return nc.Matrix(algebra, rows)


def _random_supermatrix(nc, algebra, rng, n, t, shape):
    """Even diagonal blocks (constant + one even term), odd off-diagonal blocks."""
    relabel = rng.sample(range(algebra.rank), algebra.rank)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if (i < t) == (j < t):
                row.append(_grassmann_entry(nc, algebra, rng, shape, relabel, True, 1, (2,)))
            else:
                row.append(_grassmann_entry(nc, algebra, rng, shape, relabel, False, 2, (1, 3)))
        rows.append(row)
    return nc.Matrix(algebra, rows)


def _grassmann_ops(b: _Builder, name: str, A, charpoly_ks, super_split: bool):
    nc = b.nc
    n = A.n
    det = {"right": lambda M, k: nc.right_determinant(M, k),
           "left": lambda M, k: nc.left_determinant(M, k)}

    for side in ("right", "left"):
        product = cache(lambda side=side: nc.sequence_product(A, side, 2))

        def check_product(M):
            if not _is_scalar_matrix(M * n, M.trace()):
                return _mismatch("n x the k=2 product is not a scalar matrix")
            return None

        def check_det(value, product=product):
            if not _is_scalar_matrix(product() * n, value):
                return _mismatch("n x the k=2 product is not det_2 I")
            if super_split and not _is_even(value):
                return _mismatch("supermatrix det_2 has an odd part")
            return None

        short = "rdet_2" if side == "right" else "ldet_2"
        b.add("sequence_product_2", f"{side} product k=2 {name}",
              lambda side=side: nc.sequence_product(A, side, 2), check_product)
        b.add(short, f"{short} {name}", lambda fn=det[side]: fn(A, 2), check_det)

    for k in charpoly_ks:
        for side in ("right", "left"):
            constant = cache(lambda side=side, k=k: det[side](-A, k))

            def check_charpoly(p, k=k, constant=constant):
                top = n**k
                if p.degree() != top:
                    return _mismatch(f"degree {p.degree()}, expected {top}")
                if p.coeff(top) != A.ring.from_int(_leading_coefficient(n, k)):
                    return _mismatch("leading coefficient is not n((n-1)!)^(1+...+n^(k-1))")
                if p.coeff(0) != constant():
                    return _mismatch("constant term differs from det_k(-A)")
                if super_split and not all(_is_even(c) for c in p.coefficients):
                    return _mismatch("supermatrix charpoly has an odd coefficient")
                return None

            b.add(f"charpoly_{k}", f"charpoly {side} k={k} {name}",
                  lambda side=side, k=k: nc.characteristic_polynomial(A, side, k), check_charpoly)


def _grassmann_trials(b: _Builder):
    nc = b.nc
    rank6 = nc.GrassmannAlgebra(6)
    for n, count, ks in ((2, 6, (1, 2)), (3, 3, (1, 2)), (4, 1, (1,))):
        for idx in range(count):
            A = _random_grassmann_matrix(nc, rank6, b.rng, n, _shape("grassmann", n, idx))
            name = f"grassmann n={n} #{idx}"
            b.note_input(name, A)
            _grassmann_ops(b, name, A, ks, super_split=False)
    for (n, t), count in (((2, 1), 2), ((3, 1), 1), ((3, 2), 1), ((4, 2), 1)):
        for idx in range(count):
            A = _random_supermatrix(nc, rank6, b.rng, n, t, _shape("super", n, t, idx))
            name = f"super n={n} t={t} #{idx}"
            b.note_input(name, A)
            _grassmann_ops(b, name, A, (1, 2), super_split=True)
    rank4 = nc.GrassmannAlgebra(4)
    for idx in range(4):
        A = _random_grassmann_matrix(nc, rank4, b.rng, 2, _shape("scalar_ch", idx))
        name = f"scalar_ch n=2 rank=4 #{idx}"
        b.note_input(name, A)
        b.add("scalar_ch", name, lambda A=A: nc.scalar_cayley_hamilton_check(A, 2),
              lambda ok: None if ok is True else _mismatch("scalar CH residual is nonzero"))


# ------------------------------------------------------------- integer_exact


def _integer_exact(b: _Builder, int_type):
    nc = b.nc
    ring = nc.IntegerRing()
    plan = ((4, 4, True), (5, 3, True), (6, 1, False))
    for n, count, with_kdet in plan:
        for idx in range(count):
            rows = [[int_type(b.rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            A = nc.Matrix(ring, rows)
            name = f"int n={n} #{idx}"
            b.note_input(name, A)
            # Independent routes: the classical determinant and adjugate by
            # cofactor expansion, scaled by n! and (n-1)!.
            det = cache(lambda A=A: nc.commutative_det(A))
            adj = cache(lambda A=A: nc.commutative_adj(A))
            full = math.factorial(n)

            def check_scalar(value, det=det, full=full):
                return None if value == full * det() else _mismatch("value != n! det(A)")

            def check_preadjoint(P, adj=adj, n=n):
                return None if P == adj() * math.factorial(n - 1) else _mismatch("A* != (n-1)! adj(A)")

            b.add("sdet", f"sdet {name}", lambda A=A: nc.symmetric_determinant(A), check_scalar)
            b.add("preadjoint", f"preadjoint {name}", lambda A=A: nc.preadjoint(A), check_preadjoint)
            if with_kdet:
                b.add("rdet_1", f"rdet_1 {name}", lambda A=A: nc.right_determinant(A, 1), check_scalar)
                b.add("ldet_1", f"ldet_1 {name}", lambda A=A: nc.left_determinant(A, 1), check_scalar)


# ---------------------------------------------------------------- cli_verify


def cli_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_cli_subprocess(argv, budget_s: float) -> CliOutcome:
    """``python -m ncdet argv`` as a child process; killed at the budget."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncdet", *argv],
            capture_output=True,
            text=True,
            timeout=budget_s,
            env=cli_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        err = exc.stderr or ""
        return CliOutcome(
            returncode=-1,
            stdout=out.decode(errors="replace") if isinstance(out, bytes) else out,
            stderr=err.decode(errors="replace") if isinstance(err, bytes) else err,
            timed_out=True,
        )
    return CliOutcome(proc.returncode, proc.stdout, proc.stderr)


def run_cli_inprocess(nc, argv) -> CliOutcome:
    """``ncdet.cli.main(argv)`` in this process, with the exit code and the
    output a subprocess would give (an escaping exception prints a
    traceback and exits 1, as the interpreter would)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = nc.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _classify(outcome: CliOutcome, expected_exit: int):
    if outcome.timed_out:
        return ("timeout", "subprocess ran past its budget")
    if "Traceback" in outcome.stderr:
        lines = outcome.stderr.strip().splitlines()
        return ("traceback", lines[-1] if lines else "")
    if outcome.returncode != expected_exit:
        return ("exit_code", f"exit {outcome.returncode}, expected {expected_exit}")
    return None


def _doc_text(ring_obj, rows, t=None) -> str:
    obj = {"ring": ring_obj, "n": len(rows), "entries": [[str(e) for e in row] for row in rows]}
    if t is not None:
        obj["t"] = t
    return json.dumps(obj, indent=2) + "\n"


def _cli_documents(nc, rng) -> dict[str, str]:
    docs = {}
    for n in (1, 2, 3, 4):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        docs[f"int{n}.json"] = _doc_text({"kind": "integer"}, rows)
    for n in (1, 2, 3):
        A = _random_free_matrix(nc, rng, n, _shape("cli-free", n))
        docs[f"free{n}.json"] = _doc_text(
            {"kind": "free", "generators": list(FREE_LETTERS)}, A.rows
        )
    rank4 = nc.GrassmannAlgebra(4)
    for n in (1, 2):
        A = _random_grassmann_matrix(nc, rank4, rng, n, _shape("cli-grassmann", n))
        docs[f"grass{n}.json"] = _doc_text({"kind": "grassmann", "rank": 4}, A.rows)
    S = _random_supermatrix(nc, nc.GrassmannAlgebra(6), rng, 3, 1, _shape("cli-super"))
    docs["super3.json"] = _doc_text({"kind": "grassmann", "rank": 6}, S.rows, t=1)
    return docs


# (argv with document names, expected exit code).  Every matrix command runs
# in text and in machine output; 1x1 documents and inputs that must be
# refused with exit 2 stay in the mix.
CLI_COMMANDS = (
    (("sdet", "--input", "int4.json"), 0),
    (("sdet", "--input", "free3.json", "--output", "machine"), 0),
    (("sdet", "--input", "int1.json", "--output", "machine"), 0),
    (("sdet", "--generic", "4", "--output", "machine"), 0),
    (("preadj", "--input", "int3.json", "--output", "machine"), 0),
    (("preadj", "--input", "free2.json"), 0),
    (("preadj", "--input", "free1.json"), 0),
    (("rdet", "--k", "2", "--input", "int3.json"), 0),
    (("rdet", "--k", "2", "--input", "super3.json", "--output", "machine"), 0),
    (("rdet", "--k", "2", "--input", "grass1.json"), 0),
    (("ldet", "--k", "2", "--input", "free2.json", "--output", "machine"), 0),
    (("ldet", "--k", "2", "--input", "grass2.json"), 0),
    (("charpoly", "--k", "2", "--side", "left", "--input", "grass2.json", "--output", "machine"), 0),
    (("charpoly", "--input", "int4.json"), 0),
    (("newton", "--input", "free3.json"), 0),
    (("newton", "--input", "int2.json", "--output", "machine"), 0),
    (("newton", "--input", "int1.json"), 2),
    (("s4", "--input", "free2.json", "--output", "machine"), 0),
    (("s4", "--input", "int2.json"), 0),
    (("rdet", "--k", "3", "--generic", "3"), 2),
)

# Verify suites with explicit sizes, so a change of the suite defaults does
# not change the work.  The seed argument is the workload seed.
CLI_VERIFY = (
    ("thm2_3", ("--n", "3", "--rank", "6", "--trials", "4"), "text"),
    ("thm2_5", ("--n", "3", "--rank", "6", "--trials", "2"), "machine"),
    ("all", ("--n", "2", "--rank", "4", "--trials", "2"), "text"),
)


def _matrix_reference(nc, argv):
    """(operation, canonical text, input digest) that the command must print."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--generic" in opts:
        _, A = nc.generic_matrix(int(opts["--generic"]))
        digest = sha256_text(f"generic:{opts['--generic']}")
    else:
        path = opts["--input"]
        _, A = nc.load_matrix(path)
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    k = int(opts.get("--k", 1))
    if command == "sdet":
        return "sdet", str(nc.symmetric_determinant(A)), digest
    if command == "preadj":
        return "preadj", str(nc.preadjoint(A)), digest
    if command == "rdet":
        return f"rdet_{k}", str(nc.right_determinant(A, k)), digest
    if command == "ldet":
        return f"ldet_{k}", str(nc.left_determinant(A, k)), digest
    if command == "charpoly":
        side = opts.get("--side", "right")
        return f"charpoly_{side}_{k}", str(nc.characteristic_polynomial(A, side, k)), digest
    if command == "newton":
        formula = nc.newton_sdet_2 if A.n == 2 else nc.newton_sdet_3
        return f"newton_{A.n}", str(formula(A)), digest
    (a, b_), (c, d) = A.rows
    return "s4", str(nc.standard_polynomial_4(a, b_, c, d)), digest


def _matrix_check(nc, argv, expected_exit):
    machine = "machine" in argv
    reference = cache(lambda: _matrix_reference(nc, argv))

    def check(outcome: CliOutcome):
        failure = _classify(outcome, expected_exit)
        if failure is not None:
            return failure
        if expected_exit == 2:
            if outcome.stdout or not outcome.stderr.startswith("error: "):
                return _mismatch("refusal is not a single 'error:' message")
            return None
        operation, text, digest = reference()
        if not machine:
            return None if outcome.stdout == text + "\n" else _mismatch("text output differs")
        lines = outcome.stdout.splitlines()
        if len(lines) != 1:
            return _mismatch(f"{len(lines)} machine records, expected 1")
        record = json.loads(lines[0])
        if (
            record.get("operation") != operation
            or record.get("result_canonical_text") != text
            or record.get("input_digest") != digest
            or not isinstance(record.get("elapsed_ms"), (int, float))
        ):
            return _mismatch("machine record differs")
        return None

    return check


def _verify_check(suite, machine):
    def check(outcome: CliOutcome):
        failure = _classify(outcome, 0)
        if failure is not None:
            return failure
        lines = outcome.stdout.strip().splitlines()
        if machine:
            records = [json.loads(line) for line in lines]
            good = bool(records) and all(
                r.get("result_canonical_text") == "pass"
                and str(r.get("operation", "")).startswith(f"verify:{suite}:")
                for r in records
            )
        else:
            good = (
                len(lines) >= 2
                and lines[-1].startswith(f"suite {suite}: all checks passed")
                and all(line.startswith("[PASS] ") for line in lines[:-1])
            )
        return None if good else _mismatch("verify output is not all passes")

    return check


def _cli_verify(b: _Builder, seed: int, scratch: Path):
    nc = b.nc
    scratch.mkdir(parents=True, exist_ok=True)
    docs = _cli_documents(nc, b.rng)
    doc_paths = {}
    for name, text in docs.items():
        path = scratch / name
        path.write_text(text, encoding="utf-8")
        doc_paths[name] = str(path)
        b.note_input(name, text)

    def add(kind, label, argv, check):
        b.add(kind, label, lambda: run_cli_subprocess(argv, CLI_BUDGET_S), check,
              budget_s=CLI_BUDGET_S, in_process=False, argv=argv)

    for argv_names, expected_exit in CLI_COMMANDS:
        argv = tuple(doc_paths.get(a, a) for a in argv_names)
        label = "cli " + " ".join(argv_names)
        b.note_input(label, str(expected_exit))
        add(f"cli:{argv_names[0]}", label, argv,
            _matrix_check(nc, argv, expected_exit))
    for suite, sizes, output in CLI_VERIFY:
        argv = ("verify", "--suite", suite, *sizes, "--seed", str(seed), "--output", output)
        label = "cli " + " ".join(argv)
        b.note_input(label, "0")
        add("cli:verify", label, argv, _verify_check(suite, output == "machine"))
