import ast
import json
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


def _readme_block(heading: str, language: str = "bash") -> list[str]:
    """The lines of the first block in language under the README's heading line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0].splitlines()


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
    lines = _readme_block("## Command line")
    assert _run_readme_commands(lines, capsys, tmp_path) >= 7


def test_readme_verification_examples_run(capsys, tmp_path):
    lines = _readme_block("### Verification suites")
    assert _run_readme_commands(lines, capsys, tmp_path) >= 3


def test_readme_library_quick_start_runs():
    source = "\n".join(_readme_block("## Library quick start", "python"))
    module = ast.parse(source)
    namespace = {}
    exec(compile(module, "README.md", "exec"), namespace)
    # the block ends on the check its comment says is True
    last = module.body[-1]
    assert isinstance(last, ast.Expr)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace) is True


# The package loads a public name's module on the name's first read, so what
# this process's ``vars(ncdet)`` holds depends on the tests run before; the
# namespace's contract is checked in a fresh interpreter.
_NAMESPACE_PROBE = """
import json, sys, types
import ncdet
report = {"not_home_objects": [
    name for name in ncdet.__all__ if name != "__version__"
    and getattr(ncdet, name) is not getattr(sys.modules[f"ncdet.{ncdet._HOMES[name]}"], name)
]}
report["public"] = sorted(
    name for name, value in vars(ncdet).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
report["dir"] = dir(ncdet)
try:
    ncdet.no_such_name
    report["unknown"] = None
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_package_all_lists_every_public_name():
    result = subprocess.run(
        [sys.executable, "-c", _NAMESPACE_PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    namespace = json.loads(result.stdout)
    assert namespace["not_home_objects"] == []
    assert set(namespace["public"]) == set(ncdet.__all__) - {"__version__"}
    assert set(namespace["dir"]) >= set(ncdet.__all__)
    assert namespace["unknown"] == "module 'ncdet' has no attribute 'no_such_name'"


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from ncdet import *", namespace)
    submodules = {path.stem for path in (ROOT / "src" / "ncdet").glob("[a-z]*.py")}
    assert submodules >= {"cli", "rings", "verify"}
    assert submodules.isdisjoint(namespace)
    assert not any(isinstance(value, ModuleType) for value in namespace.values())
    assert len(ncdet.__all__) == len(set(ncdet.__all__))


# public names with no caller outside the tests yet, each with its reason
_WITHOUT_CALLER = {
    "specialize": "ROADMAP item 6 gives it a caller",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    package = ROOT / "src" / "ncdet"
    sources = [
        path.read_text(encoding="utf-8")
        for path in [*package.glob("*.py"), *(ROOT / "bench").rglob("*.py"), *(ROOT / "demos").glob("*.py")]
        if path != package / "__init__.py"
    ]
    sources.append("\n".join(_readme_block("## Library quick start", "python")))
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert set(ncdet.__all__) - used - {"__version__"} == set(_WITHOUT_CALLER)
