import ast
import json
import random
import time
from pathlib import Path

import pytest

import ncdet
from ncdet import (
    CentralPoly, CHWitness, CommutatorDefect, GrassmannAlgebra, Matrix, generic_matrix,
    is_supermatrix, run_verify, verify,
)
from ncdet.cli import main
from ncdet.rings import TermLimitError
from ncdet import determinants
from ncdet.matrices import _det_recursive, _signed_minors
from ncdet.verify import SUITES

from oracles import IntMatrixRing, random_matrix
from test_contract_ring import RINGS, draws


def test_every_registered_suite_exists():
    expected = {
        "thm2_1", "thm2_2", "thm2_3", "thm2_4", "thm2_5", "thm2_6", "thm2_7",
        "thm3_1", "cor3_2", "prop3_3", "cor3_4", "prop4_1", "thm4_2", "rem4_3",
        "thm4_4", "cor4_5", "commutative_collapse",
    }
    assert set(SUITES) == expected


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        run_verify("thm0_0")


@pytest.mark.parametrize("suite", ["thm2_3", "thm2_4"])
def test_zero_trials_are_an_input_error(suite, capsys):
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        run_verify(suite, trials=0)
    assert main(["verify", "--suite", suite, "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be at least 1\n"


def test_an_unknown_option_is_a_type_error_naming_the_fields():
    with pytest.raises(TypeError, match="takes the fields n, k, t, rank, trials, seed"):
        run_verify("thm3_1", size=3)


def test_sizes_over_the_guardrail_are_input_errors():
    with pytest.raises(ValueError, match="outside"):
        run_verify("thm3_1", n=9)
    with pytest.raises(ValueError, match="rank"):
        run_verify("thm2_3", rank=30)
    with pytest.raises(ValueError, match="shapes"):
        run_verify("thm2_4", n=2, t=2)


@pytest.mark.parametrize(
    "suite, option, value",
    [
        ("thm2_3", "trials", 1.5),
        ("thm3_1", "n", 2.5),
        ("thm3_1", "n", True),
        ("thm2_3", "rank", "4"),
        ("thm2_1", "k", 2.0),
        ("thm2_4", "t", 1.0),
        ("thm2_3", "seed", None),
    ],
)
def test_an_option_that_is_not_an_int_is_an_input_error(suite, option, value, monkeypatch):
    def no_check(name, fn):
        raise AssertionError(f"check {name!r} ran")

    monkeypatch.setattr(verify, "_check", no_check)
    message = f"{option} must be an integer, got {value!r}"
    with pytest.raises(ValueError) as caught:
        run_verify(suite, **{option: value})
    assert str(caught.value) == message


@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_every_suite_at_n1_passes_or_is_refused(suite, capsys):
    code = main(["verify", "--suite", suite, "--n", "1"])
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: ")
    else:
        assert code == 0
        assert "[FAIL]" not in captured.out
        assert "all checks passed" in captured.out


@pytest.mark.parametrize(
    "argv",
    [["--t", "5"], ["--n", "1"]],
    ids=lambda argv: " ".join(argv),
)
def test_all_refuses_an_empty_shape_set_before_any_check(monkeypatch, capsys, argv):
    ran = []
    check = verify._check
    monkeypatch.setattr(verify, "_check", lambda *args: ran.append(args) or check(*args))
    assert main(["verify", "--suite", "all", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no valid (n, t) supermatrix shapes for the requested sizes\n"
    assert ran == []


@pytest.mark.parametrize("suite", SUITES)
def test_a_started_suite_has_read_every_option_it_reads(suite):
    # the unread-option refusal runs between the start and the first check
    opt = verify._OptionReader(verify.VerifyOptions(n=2, rank=4, trials=2))
    pairs = SUITES[suite](opt)
    first = next(pairs)
    started = set(opt.read)
    checks = [verify._check(*first), *(verify._check(*pair) for pair in pairs)]
    assert all(c.passed for c in checks)
    assert opt.read == started


@pytest.mark.parametrize(
    "suite, options, unread",
    [
        ("thm4_2", {"n": 4}, "--n"),
        ("thm4_2", {"n": 4, "k": 3, "t": 1}, "--n, --k, --t"),
        ("prop4_1", {"seed": 7}, "--seed"),
        ("thm3_1", {"n": 2, "trials": 3}, "--trials"),
    ],
)
def test_a_single_suite_refuses_an_option_it_never_reads(monkeypatch, suite, options, unread):
    ran = []
    monkeypatch.setattr(verify, "_check", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=f"^suite {suite} does not read {unread}$"):
        run_verify(suite, **options)
    assert ran == []


def test_an_option_at_its_default_is_not_refused(capsys):
    assert main(["verify", "--suite", "thm4_2", "--seed", "42"]) == 0
    assert main(["verify", "--suite", "thm4_2", "--n", "4"]) == 2
    assert capsys.readouterr().err == "error: suite thm4_2 does not read --n\n"


def test_every_shape_gets_a_trial(capsys):
    assert main(["verify", "--suite", "thm2_4", "--trials", "1"]) == 0
    shapes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[PASS]")]
    assert [line.split(":")[0] for line in shapes] == [
        "[PASS] thm2_4 n=2 t=1", "[PASS] thm2_4 n=3 t=1", "[PASS] thm2_4 n=3 t=2",
    ]
    assert all("-- 1 trials" in line for line in shapes)
    checks = run_verify("thm2_5", trials=2).checks
    assert [(c.name.split(":")[0], c.detail) for c in checks] == [
        ("thm2_5 n=2 t=1", "1 trials"), ("thm2_5 n=3 t=1", "1 trials"), ("thm2_5 n=3 t=2", "1 trials"),
    ]


def test_single_suite_reports_pass():
    report = run_verify("thm3_1", n=2)
    assert report.ok
    assert all(c.passed for c in report.checks)
    assert "[PASS]" in str(report)


def test_generic_cayley_hamilton_witness_passes_at_n4():
    report = run_verify("thm2_6", n=4)
    assert report.ok
    assert len(report.checks) == 6


def test_options_narrow_the_sizes():
    report = run_verify("thm3_1", n=3)
    assert all("n=3" in c.name for c in report.checks)


def test_seed_changes_are_still_deterministic():
    first = run_verify("commutative_collapse", n=2, trials=5, seed=7)
    second = run_verify("commutative_collapse", n=2, trials=5, seed=7)
    assert [c.passed for c in first.checks] == [c.passed for c in second.checks]


def flip_a_minor_sign(monkeypatch, which):
    # flip the sign of the first term of the state that holds entry `which`
    # of A*, row-major, on the top level of every sweep; sdet and the
    # preadjoint look the patched name up per call, so no cached level is
    # reused
    true_level = determinants._level

    def flipped(n, t):
        drops, steps, halves = true_level(n, t)
        if t == n - 1:
            r, s = divmod(which % (n * n), n)
            i = (n - 1 - s) * n + n - 1 - r
            (pred, cell, negative), *rest = steps[i]
            steps = steps[:i] + (((pred, cell, not negative), *rest),) + steps[i + 1 :]
        return drops, steps, halves

    monkeypatch.setattr(determinants, "_level", flipped)


def _failed_by_mismatch(report):
    # a check that raised fails too, with an "error:" detail; these must
    # fail on a wrong value instead
    failed = [c for c in report.checks if not c.passed]
    assert all(not c.detail.startswith("error:") for c in failed)
    return [c.name for c in failed]


def test_injected_sign_error_flips_a_suite(monkeypatch):
    # mutation smoke test: corrupt one sign of the sweep's top level, whose
    # states are the entries of the preadjoint, and the theorem suites must
    # notice.  At n = 2 and 4 sdet reads the halves, so both trace checks
    # fail; prop4_1 reads no preadjoint and passes
    def both(n):
        return [f"thm3_1 n={n}: tr(A A*) = sdet(A)", f"thm3_1 n={n}: tr(A* A) = sdet(A)"]

    flip_a_minor_sign(monkeypatch, 0)
    for n in (2, 4):
        assert _failed_by_mismatch(run_verify("thm3_1", n=n)) == both(n)
    assert _failed_by_mismatch(run_verify("prop4_1")) == []
    # one flipped sign in sdet's halves leaves A* whole: at n = 2 both
    # prop4_1 lines fail with both trace checks
    monkeypatch.undo()
    drops, steps, ((x, y, negative), *halves) = determinants._level(2, 1)
    monkeypatch.setitem(determinants._levels, (2, 1), (drops, steps, ((x, y, not negative), *halves)))
    assert len(_failed_by_mismatch(run_verify("prop4_1"))) == 2
    assert _failed_by_mismatch(run_verify("thm3_1", n=2)) == both(2)
    # and at n = 4 both trace checks fail, on the generic matrix and on an
    # M_2(Z) draw alike
    monkeypatch.undo()
    drops, steps, ((x, y, negative), *halves) = determinants._level(4, 2)
    monkeypatch.setitem(determinants._levels, (4, 2), (drops, steps, ((x, y, not negative), *halves)))
    M2, rng = IntMatrixRing(2), random.Random(4)
    for matrix in (generic_matrix, lambda n: (M2, random_matrix(M2, rng, n))):
        pairs = verify._suite_thm3_1(verify._OptionReader(verify.VerifyOptions(n=4)), matrix)
        report = verify.VerifyReport(suite="thm3_1", checks=[verify._check(*pair) for pair in pairs])
        assert _failed_by_mismatch(report) == both(4)
    # q_A,1 is the halves of zI - A at every n, and cor3_2 compares it
    # with p_A,1 as tr(X X*), which reads only the sweep's steps: one
    # flipped halves sign at n = 3 (the top level) or 4 fails it
    for n in (3, 4):
        monkeypatch.undo()
        drops, steps, ((x, y, negative), *halves) = determinants._level(n, 2)
        monkeypatch.setitem(determinants._levels, (n, 2), (drops, steps, ((x, y, not negative), *halves)))
        assert _failed_by_mismatch(run_verify("cor3_2", n=n)) == [f"cor3_2 n={n}: p_A,1 = q_A,1"]


def test_failure_details_are_reported(monkeypatch):
    flip_a_minor_sign(monkeypatch, -1)
    report = run_verify("thm3_1", n=2)
    assert _failed_by_mismatch(report)
    assert "[FAIL]" in str(report)


@pytest.mark.parametrize("suite, n", [("thm2_6", "2"), ("cor4_5", None)])
def test_a_fixture_that_raises_is_a_failed_check(monkeypatch, capsys, suite, n):
    calls = 0

    def broken(A):
        nonlocal calls
        calls += 1
        raise ArithmeticError("witness broke")

    monkeypatch.setattr(verify, "cayley_hamilton_witness", broken)
    code = main(["verify", "--suite", suite, *(["--n", n] if n else [])])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out
    assert "error: witness broke" in out
    assert calls == 1  # the error is kept, not recomputed by each check


def _add_at(M, i, j, x):
    """M with x added to entry (i, j)."""
    rows = [list(row) for row in M.rows]
    rows[i][j] = rows[i][j] + x
    return Matrix(M.ring, rows)


def _off_diagonal_generator(w):
    a = w.lambdas[0].ring.gen("a")
    right = list(w.right_defects)
    right[1] = _add_at(right[1], 0, 1, a)
    return CHWitness(w.lambdas, tuple(right), w.left_defects)


def _diagonal_commutator(w):
    a, b = w.lambdas[0].ring.gens()[:2]
    left = list(w.left_defects)
    left[0] = _add_at(left[0], 0, 0, a * b - b * a)
    return CHWitness(w.lambdas, w.right_defects, tuple(left))


def _lambda_plus_one(w):
    lambdas = list(w.lambdas)
    lambdas[1] = lambdas[1] + 1
    return CHWitness(tuple(lambdas), w.right_defects, w.left_defects)


def _defect_entry_plus_one(w):
    right = list(w.right_defects)
    right[0] = _add_at(right[0], 0, 1, 1)
    return CHWitness(w.lambdas, tuple(right), w.left_defects)


def _scalar_plus_one(result):
    return CommutatorDefect(scalar=result.scalar + 1, defect=result.defect)


# these two fail on every ring; only the free algebra has the [R,R] line
_ON_EVERY_RING = {
    f"{suite} {what} on {ring} n={n}": (corrupt, suite, n, ring, failing)
    for ring in ("generic", *RINGS)
    for n in (2, 3)
    for corrupt, suite, what, failing in (
        (_defect_entry_plus_one, "thm2_6", "defect entry + 1", ["right CH identity vanishes"]
         + ["defect entries lie in [R,R]"] * (ring == "generic")),
        (_scalar_plus_one, "thm2_2", "scalar part + 1", ["scalar part is sdet"] * 2),
    )
}


# neither the witness nor the commutator defect checks itself, so each
# corruption must fail the named checks of its suite and pass the others
@pytest.mark.parametrize(
    "corrupt, suite, n, ring, failing",
    [
        (
            _off_diagonal_generator, "thm2_6", 2, "generic",
            {"defect entries lie in [R,R]", "right CH identity vanishes"},
        ),
        (
            _diagonal_commutator, "thm2_6", 2, "generic",
            {"defects have zero trace", "left CH identity vanishes"},
        ),
        (
            _lambda_plus_one, "thm2_6", 2, "generic",
            {
                "right CH identity vanishes",
                "left CH identity vanishes",
                "lambdas are the coefficients of p_A,1",
            },
        ),
        (
            _lambda_plus_one, "cor4_5", None, "generic",
            {
                "lambda coefficients match the closed form",
                "coefficient-on-the-right identity vanishes",
                "coefficient-on-the-left identity vanishes",
            },
        ),
        *_ON_EVERY_RING.values(),
    ],
    ids=[
        "thm2_6 generator off the diagonal",
        "thm2_6 commutator on the diagonal",
        "thm2_6 lambda_1 + 1",
        "cor4_5 lambda_1 + 1",
        *_ON_EVERY_RING,
    ],
)
def test_a_corrupted_witness_fails_the_named_checks(monkeypatch, corrupt, suite, n, ring, failing):
    fixture = "commutator_defect" if suite == "thm2_2" else "cayley_hamilton_witness"
    original = getattr(verify, fixture)
    monkeypatch.setattr(verify, fixture, lambda *args: corrupt(original(*args)))
    matrix = generic_matrix if ring == "generic" else draws(RINGS[ring], 0)
    opt = verify._OptionReader(verify.VerifyOptions(n=n))
    checks = [verify._check(*pair) for pair in SUITES[suite](opt, matrix)]
    failed = sorted(c.name.split(": ", 1)[1] for c in checks if not c.passed)
    assert failed == sorted(failing)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("k", [1, 2])
def test_an_odd_charpoly_coefficient_fails_thm2_5(monkeypatch, side, k):
    original = verify.characteristic_polynomial

    def corrupted(A, which, degree):
        p = original(A, which, degree)
        return p + CentralPoly(p.ring, [A.ring.gen(1)]) if (which, degree) == (side, k) else p

    monkeypatch.setattr(verify, "characteristic_polynomial", corrupted)
    report = run_verify("thm2_5", n=2, trials=1)
    assert [(c.passed, c.detail) for c in report.checks] == [
        (False, f"{side} charpoly k={k} has odd coefficients")
    ]


# each corruption breaks one of the three things scalar CH checks: the right
# residual (p's constant), the left one (q's constant), the leading coefficient
@pytest.mark.parametrize(
    "side, degree", [("right", 0), ("left", 0), ("right", 4)], ids=["p", "q", "leading"]
)
def test_a_corrupted_charpoly_fails_thm2_7(monkeypatch, side, degree):
    original, draw = verify.characteristic_polynomial, verify.random_grassmann_matrix
    draws = []

    def corrupted(A, which, k):
        p = original(A, which, k)
        if which != side or len(draws) < 2:
            return p
        return p + CentralPoly(p.ring, [A.ring.zero] * degree + [A.ring.one])

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(verify, "characteristic_polynomial", corrupted)
    monkeypatch.setattr(verify, "random_grassmann_matrix", counted)
    report = run_verify("thm2_7", n=2, trials=3)
    # the first draw passes; the check stops at the second and reports it
    assert [(c.passed, c.detail) for c in report.checks] == [(False, "scalar CH identity failed")]
    assert len(draws) == 2


def _default_draws(monkeypatch, suite, name="random_grassmann_matrix"):
    """The matrices ``suite`` draws by ``verify.<name>`` at its default
    options (seed 42), in the order of its random stream, each with the
    arguments after the stream ((n,) or (n, t)); the suite must pass on
    them."""
    draws = []
    draw = getattr(verify, name)

    def recorded(*args):
        draws.append((draw(*args), args[2:]))
        return draws[-1][0]

    monkeypatch.setattr(verify, name, recorded)
    assert run_verify(suite).ok
    return draws


# the controls are the nearest statements the paper does not claim: scalar
# coefficients at k = 1, below the exterior algebra's Lie-nilpotency index
# 2; a check passes vacuously on a draw where its control holds too
def test_thm2_7s_k1_control_fails_on_11_of_its_20_default_draws(monkeypatch):
    draws = [A for A, _ in _default_draws(monkeypatch, "thm2_7")]
    assert [(A.n, A.ring.rank) for A in draws] == [(2, 4)] * 20
    assert sum(not verify.scalar_cayley_hamilton_check(A, k=1) for A in draws) == 11


def test_thm2_3s_k1_control_is_scalar_on_a_pinned_share_of_its_default_draws(monkeypatch):
    draws = [A for A, _ in _default_draws(monkeypatch, "thm2_3")]
    assert [A.n for A in draws] == [2] * 20 + [3] * 20
    scalar = {}
    for A in draws:
        sides = []
        for side in ("right", "left"):
            M = verify.sequence_product(A, side, 1)
            sides.append(verify.scalar_matrix_equal(M * A.n, M.trace()))
        for key, holds in (("right", sides[0]), ("left", sides[1]), ("both", all(sides))):
            scalar[A.n, key] = scalar.get((A.n, key), 0) + holds
    # n A P1 (right) and n Q1 A (left) scalar, out of 20 draws per n
    assert scalar == {
        (2, "right"): 17, (2, "left"): 16, (2, "both"): 15,
        (3, "right"): 6, (3, "left"): 6, (3, "both"): 5,
    }


def _mixed_supermatrix_draws(monkeypatch, suite):
    """(A, t) for the supermatrices ``suite`` draws at its defaults, each
    with one odd term, v1, added to its (0, 0) entry, which lies in the even
    diagonal block: the nearest matrix that is not a supermatrix."""
    draws = _default_draws(monkeypatch, suite, "random_supermatrix")
    assert [shape for _, shape in draws] == [(2, 1)] * 7 + [(3, 1)] * 7 + [(3, 2)] * 6
    mixed = [(_add_at(A, 0, 0, A.ring.gen(1)), t) for A, (_, t) in draws]
    assert not any(is_supermatrix(M, t) for M, t in mixed)
    return mixed


def test_thm2_4s_mixed_parity_control_fails_on_all_20_default_draws(monkeypatch):
    failed = {"preadjoint": 0, "determinants": 0, "either": 0}
    for M, t in _mixed_supermatrix_draws(monkeypatch, "thm2_4"):
        preadjoint_fails = not is_supermatrix(verify.preadjoint(M), t)
        determinants_fail = not all(
            verify._even(det(M, k))
            for k in (1, 2) for det in (verify.right_determinant, verify.left_determinant)
        )
        failed["preadjoint"] += preadjoint_fails
        failed["determinants"] += determinants_fail
        failed["either"] += preadjoint_fails or determinants_fail
    assert failed == {"preadjoint": 20, "determinants": 19, "either": 20}


def test_thm2_5s_mixed_parity_control_fails_on_all_20_default_draws(monkeypatch):
    odd = 0
    for M, _ in _mixed_supermatrix_draws(monkeypatch, "thm2_5"):
        odd += not all(
            verify._even(c)
            for k in (1, 2) for side in ("right", "left")
            for c in verify.characteristic_polynomial(M, side, k).coefficients
        )
    assert odd == 20


def test_commutative_collapses_exterior_control_fails_on_a_pinned_share_of_draws(monkeypatch):
    # the suite's own identities and random stream (seed 42, n = 2, 3, 4,
    # 20 draws each), each integer draw replaced by an exterior-algebra
    # draw of rank 6, the exterior suites' default, and det and adj by the
    # cofactor expansion, which commutative_det and commutative_adj refuse
    # to run over a noncommutative ring
    algebra = GrassmannAlgebra(6)
    monkeypatch.setattr(
        verify, "random_integer_matrix",
        lambda rng, n: verify.random_grassmann_matrix(algebra, rng, n),
    )
    monkeypatch.setattr(verify, "commutative_det", _det_recursive)
    monkeypatch.setattr(verify, "commutative_adj", lambda A: _signed_minors(A, _det_recursive))
    failed = {}

    def counted(count, draw, test):
        # the check runs while its suite sits at the yield, so n is current
        def check():
            for _ in range(count):
                A = draw()
                failed[A.n] = failed.get(A.n, 0) + (test(A) is not None)
            return True, f"{count} trials"
        return check

    monkeypatch.setattr(verify, "_trials", counted)
    assert run_verify("commutative_collapse").ok
    assert failed == {2: 5, 3: 14, 4: 20}


@pytest.mark.parametrize(
    "side, detail",
    [("right", "n A P1 P2 is not rdet_2(A) I"), ("left", "n Q2 Q1 A is not ldet_2(A) I")],
)
def test_a_non_scalar_sequence_product_fails_thm2_3(monkeypatch, side, detail):
    original = verify.sequence_product

    def corrupted(A, which, k):
        # a generator off the diagonal: no longer scalar, the trace unchanged
        M = original(A, which, k)
        return _add_at(M, 0, 1, A.ring.gen(1)) if which == side else M

    monkeypatch.setattr(verify, "sequence_product", corrupted)
    report = run_verify("thm2_3", n=2, trials=1)
    assert [(c.passed, c.detail) for c in report.checks] == [(False, detail)]


# each corruption adds v1, an odd element, to one fixture or result of the
# first (2, 1) draw: to the (0, 0) entry of a matrix, which lies in the even
# diagonal block, or to a determinant of the named k
@pytest.mark.parametrize(
    "target, k, detail",
    [
        ("random_supermatrix", None, "fixture is not a supermatrix"),
        ("preadjoint", None, "preadjoint left the supermatrix ring"),
        ("right_determinant", 1, "rdet_1 has an odd part"),
        ("left_determinant", 2, "ldet_2 has an odd part"),
    ],
)
def test_an_odd_part_fails_thm2_4(monkeypatch, target, k, detail):
    original = getattr(verify, target)

    def corrupted(*args):
        value = original(*args)
        odd = value.ring.gen(1)
        if isinstance(value, Matrix):
            return _add_at(value, 0, 0, odd)
        return value + odd if args[1] == k else value

    monkeypatch.setattr(verify, target, corrupted)
    report = run_verify("thm2_4", n=2, trials=1)
    assert [(c.passed, c.detail) for c in report.checks] == [(False, detail)]


# over the integers, one added to a result (an identity matrix, for a
# matrix) breaks the collapse it takes part in
@pytest.mark.parametrize(
    "target, k, detail",
    [
        ("symmetric_determinant", None, "sdet != n! det"),
        ("preadjoint", None, "A* != (n-1)! adj(A)"),
        ("preadjoint_via_minors", None, "minor-formula A* != (n-1)! adj(A)"),
        ("right_determinant", 1, "rdet_1 != n! det"),
        ("right_determinant", 2, "rdet_2 != 2 det^2"),
    ],
)
def test_a_shifted_result_fails_commutative_collapse(monkeypatch, target, k, detail):
    original = getattr(verify, target)

    def corrupted(*args):
        value = original(*args)
        return value + 1 if k is None or args[1] == k else value

    monkeypatch.setattr(verify, target, corrupted)
    report = run_verify("commutative_collapse", n=2, trials=1)
    assert [(c.passed, c.detail) for c in report.checks] == [(False, detail)]


class _ShiftedScalars(Matrix):
    """A matrix class whose scalar matrices hold value + 1, so the inserted
    trace of tr(A tr(A) A) is off by one."""

    @classmethod
    def scalar(cls, ring, n, value):
        return Matrix.scalar(ring, n, value + 1)


def test_a_shifted_trace_insertion_fails_commutative_collapse(monkeypatch):
    monkeypatch.setattr(verify, "Matrix", _ShiftedScalars)
    report = run_verify("commutative_collapse", n=2, trials=1)
    assert [(c.passed, c.detail) for c in report.checks] == [
        (False, "trace insertions disagree over a commutative ring")
    ]


def test_a_shifted_transpose_fails_commutative_collapse(monkeypatch):
    original = Matrix.transpose
    monkeypatch.setattr(Matrix, "transpose", lambda M: original(M) + 1)
    report = run_verify("commutative_collapse", n=2, trials=1)
    assert [(c.passed, c.detail) for c in report.checks] == [
        (False, "tr((A^T)^3) != tr(A^3) over a commutative ring")
    ]


def test_no_package_function_checks_its_own_theorem():
    # a computing function returns its data; the theorem it satisfies is
    # checked once, by its verify suite, so no ArithmeticError self-check
    offenders = []
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ArithmeticError":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, (
        f"raise ArithmeticError at {', '.join(offenders)}: a theorem is checked by its "
        "verify suite (and the tests), not by the function that computes its data"
    )


def test_every_public_check_lives_in_verify():
    checks = {name: getattr(ncdet, name) for name in ncdet.__all__ if name.endswith("_check")}
    assert checks
    strays = sorted(
        f"{name} ({fn.__module__})" for name, fn in checks.items() if fn.__module__ != "ncdet.verify"
    )
    assert not strays, (
        f"{', '.join(strays)}: a theorem's verdict lives in ncdet.verify; a computing "
        "module returns the data it is checked on"
    )


def test_a_fixture_that_refuses_its_input_is_an_input_error(capsys):
    code = main(["verify", "--suite", "thm2_6", "--n", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: generic free-algebra witnesses are limited to n <= 5\n"
    assert "[FAIL]" not in captured.out


def test_a_fixture_over_the_term_budget_is_an_input_error(monkeypatch, capsys):
    def over_budget(A, k):
        raise TermLimitError("over the budget")

    monkeypatch.setattr(verify, "right_determinant", over_budget)
    code = main(["verify", "--suite", "thm2_1", "--n", "2", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: over the budget\n"
    assert "[FAIL]" not in captured.out


def test_the_witness_size_bound_is_refused_before_any_check(monkeypatch, capsys):
    calls = 0
    original = verify._check

    def counted(name, fn):
        nonlocal calls
        calls += 1
        return original(name, fn)

    monkeypatch.setattr(verify, "_check", counted)
    assert main(["verify", "--suite", "thm2_6", "--n", "6"]) == 2
    assert capsys.readouterr().err == "error: generic free-algebra witnesses are limited to n <= 5\n"
    assert calls == 0


def test_a_check_over_the_term_budget_is_an_input_error(monkeypatch, capsys):
    def over_budget(A):
        raise TermLimitError("over the budget")

    monkeypatch.setattr(verify, "newton_sdet_2", over_budget)
    code = main(["verify", "--suite", "prop4_1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: over the budget\n"
    assert "[FAIL]" not in captured.out


@pytest.mark.parametrize(
    "suite, fixture",
    [
        ("thm2_1", "preadjoint"),
        ("thm2_2", "symmetric_determinant"),
        ("thm2_6", "cayley_hamilton_witness"),
        ("thm3_1", "symmetric_determinant"),
        ("cor4_5", "cayley_hamilton_witness"),
    ],
)
def test_fixture_time_is_charged_to_the_checks(monkeypatch, suite, fixture):
    original = getattr(verify, fixture)
    calls = 0

    def slow(*args):
        nonlocal calls
        calls += 1
        time.sleep(0.05)
        return original(*args)

    monkeypatch.setattr(verify, fixture, slow)
    # thm2_1 alone reads k; another suite refuses it
    k = 1 if suite == "thm2_1" else None
    report = run_verify(suite, n=None if suite == "cor4_5" else 2, k=k)
    assert report.ok
    assert calls >= 1
    assert report.elapsed_ms >= 50 * calls


GOLDEN = json.loads((Path(__file__).parent / "verify_golden.json").read_text())


@pytest.mark.parametrize(
    "label, options",
    [("all", {}), ("all --n 2 --rank 4 --trials 2", {"n": 2, "rank": 4, "trials": 2})],
)
def test_all_reports_the_golden_checks_in_order(label, options):
    report = run_verify("all", **options)
    assert [[c.name, c.passed, c.detail] for c in report.checks] == GOLDEN[label]


def test_each_check_runs_when_its_suite_yields_it(monkeypatch):
    seen = []

    def suite(opt):
        for value in (1, 2, 3):
            yield f"fake {value}", lambda: (seen.append(value) is None, str(value))

    monkeypatch.setitem(SUITES, "fake", suite)
    report = run_verify("fake")
    assert seen == [1, 2, 3]
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("fake 1", True, "1"), ("fake 2", True, "2"), ("fake 3", True, "3"),
    ]


def test_a_fixture_is_charged_to_the_first_check_that_calls_it(monkeypatch):
    calls = []

    def slow():
        calls.append(1)
        time.sleep(0.05)
        return 7

    def suite(opt):
        value = verify._fixture(slow)
        yield "cheap", lambda: True
        yield "first reader", lambda: value() == 7
        yield "second reader", lambda: value() == 7

    monkeypatch.setitem(SUITES, "fake", suite)
    cheap, first, second = run_verify("fake").checks
    assert calls == [1]
    assert first.passed and second.passed
    assert first.elapsed_ms >= 50
    assert cheap.elapsed_ms < 25 and second.elapsed_ms < 25
