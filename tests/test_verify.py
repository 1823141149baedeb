import pytest

from ncdet import run_verify
from ncdet.cli import main
from ncdet import determinants
from ncdet.verify import SUITES


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


def test_sizes_over_the_guardrail_are_input_errors():
    with pytest.raises(ValueError, match="outside"):
        run_verify("thm3_1", n=9)
    with pytest.raises(ValueError, match="rank"):
        run_verify("thm2_3", rank=30)
    with pytest.raises(ValueError, match="shapes"):
        run_verify("thm2_4", n=2, t=2)


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


def test_single_suite_reports_pass():
    report = run_verify("thm3_1", n=2)
    assert report.ok
    assert all(c.passed for c in report.checks)
    assert "[PASS]" in str(report)


def test_options_narrow_the_sizes():
    report = run_verify("thm3_1", n=3)
    assert all("n=3" in c.name for c in report.checks)


def test_seed_changes_are_still_deterministic():
    first = run_verify("commutative_collapse", n=2, trials=5, seed=7)
    second = run_verify("commutative_collapse", n=2, trials=5, seed=7)
    assert [c.passed for c in first.checks] == [c.passed for c in second.checks]


def test_injected_sign_error_flips_a_suite(monkeypatch):
    # mutation smoke test: corrupt one permutation sign inside the sdet
    # enumeration and the theorem suites must notice
    true_table = determinants.signed_permutations

    def flipped(n):
        table = list(true_table(n))
        images, sign = table[-1]
        table[-1] = (images, -sign)
        return tuple(table)

    monkeypatch.setattr(determinants, "signed_permutations", flipped)
    assert not run_verify("thm3_1", n=2).ok
    assert not run_verify("prop4_1").ok


def test_failure_details_are_reported(monkeypatch):
    true_table = determinants.signed_permutations

    def flipped(n):
        table = list(true_table(n))
        images, sign = table[0]
        table[0] = (images, -sign)
        return tuple(table)

    monkeypatch.setattr(determinants, "signed_permutations", flipped)
    report = run_verify("thm3_1", n=2)
    assert "[FAIL]" in str(report)
