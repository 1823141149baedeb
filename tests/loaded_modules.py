"""The modules a piece of code loads in a fresh interpreter.

Every ``ncdet`` command is its own process, so what it imports is paid on
every run.  ``tests/test_cli.py`` pins those modules with this probe.  The
probe runs under ``python -S``, so no ``site`` start-up has loaded a
module before the code does.  Run as a script, it prints the package
modules one command loads, then the standard-library modules it adds over
a bare ``python -S -c pass`` (top-level public names only):

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
    """The modules that code loads in a fresh ``python -S``, where it must
    leave ``code`` at 0."""
    probe = (
        "import sys\nbefore = set(sys.modules)\n"
        f"code = 0\n{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\nsys.exit(code)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()


def cli_code(argv) -> str:
    """The probe code that runs ``ncdet`` with argv; help, which exits, sets
    ``code`` to its exit status."""
    return (
        "import ncdet.cli\n"
        f"try:\n    code = ncdet.cli.main({list(argv)!r})\n"
        "except SystemExit as exit:\n    code = exit.code"
    )


if __name__ == "__main__":
    argv = sys.argv[1:]
    loaded = loaded_in_fresh_interpreter(cli_code(argv))
    package = [name for name in loaded if name == "ncdet" or name.startswith("ncdet.")]
    print(f"ncdet {' '.join(argv)}: {' '.join(package)}")
    standard = [name for name in loaded if name not in package and "." not in name and name[0] != "_"]
    print(f"  standard library: {' '.join(standard)}")
