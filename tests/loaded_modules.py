"""The modules a piece of code loads in a fresh interpreter.

Every ``ncdet`` command is its own process, so what it imports is paid on
every run.  ``tests/test_cli.py`` pins those modules with this probe, and
run as a script it prints the package modules one command loads:

    python tests/loaded_modules.py sdet --generic 2

It reads ``src/`` of this checkout; set ``PYTHONDONTWRITEBYTECODE=1`` to
see a run that compiles every module it loads.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_in_fresh_interpreter(code: str) -> list[str]:
    """The modules that code loads in a fresh interpreter, where it must
    leave ``code`` at 0."""
    probe = (
        "import sys\nbefore = set(sys.modules)\n"
        f"code = 0\n{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\nsys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()


def cli_code(argv) -> str:
    """The probe code that runs ``ncdet`` with argv."""
    return f"import ncdet.cli\ncode = ncdet.cli.main({list(argv)!r})"


if __name__ == "__main__":
    argv = sys.argv[1:]
    package = [name for name in loaded_in_fresh_interpreter(cli_code(argv)) if name.startswith("ncdet.")]
    print(f"ncdet {' '.join(argv)}: {' '.join(package)}")
