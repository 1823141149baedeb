import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ncdet
from ncdet.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr


def _readme_bash_block(heading: str) -> list[str]:
    """The lines of the first bash block under the README's heading line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return section.split("```bash\n", 1)[1].split("```", 1)[0].splitlines()


def _run_readme_commands(lines, capsys, tmp_path) -> int:
    """Run each ``ncdet`` line through ``cli.main`` and count them; a flag
    the README shows but the parser lacks, or an option a suite refuses,
    fails here, and a comment that is a bare integer is the command's
    whole output."""
    lines = iter(lines)
    ran = 0
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            body = []
            for body_line in lines:
                if body_line == "EOF":
                    break
                body.append(body_line + "\n")
            (tmp_path / heredoc[1]).write_text("".join(body))
            continue
        if not line.startswith("ncdet "):
            continue
        command, _, comment = line.partition("#")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if re.fullmatch(r"-?\d+", comment.strip()):
            assert out == f"{comment.strip()}\n", line
        ran += 1
    return ran


def test_readme_command_line_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = _readme_bash_block("## Command line")
    assert _run_readme_commands(lines, capsys, tmp_path) >= 7


def test_readme_verification_examples_run(capsys, tmp_path):
    lines = _readme_bash_block("### Verification suites")
    assert _run_readme_commands(lines, capsys, tmp_path) >= 3


def test_package_all_lists_every_public_name():
    public = {
        name for name, value in vars(ncdet).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(ncdet.__all__) == len(set(ncdet.__all__))
    assert set(ncdet.__all__) == public | {"__version__"}
