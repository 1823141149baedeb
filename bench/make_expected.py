"""Regenerate expected.json: canonical-text digests of the generic results.

    python3 bench/make_expected.py

Run it only when the canonical text of a result is meant to change; the
digests pin the seed-independent results that ``generic_symbolic`` checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracer import term_count  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    import ncdet as nc

    out = {}
    for label, _kind, n, call in wl.GENERIC_CASES:
        _, A = nc.generic_matrix(n)
        result = call(nc, A)
        out[label] = {"sha256": wl.sha256_text(wl.canonical(result)), "terms": term_count(result)}
    text = json.dumps({"generic_symbolic": out}, indent=2) + "\n"
    wl.EXPECTED_PATH.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
