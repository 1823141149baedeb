"""Expressions, matrix documents, and the verification suites.

Elements parse from a small grammar (explicit '*', '^' for repeated
multiplication, order preserved), matrices load from JSON documents, and
`run_verify` drives the named identity suites that the `ncdet verify`
subcommand exposes on the command line.
"""

import tempfile
from pathlib import Path

from ncdet import (
    FreeAlgebra,
    GrassmannAlgebra,
    IntegerRing,
    MatrixDocument,
    load_matrix,
    parse_expression,
    run_verify,
    save_matrix,
    symmetric_determinant,
)

# Expression parsing is ring-directed: the same source means different
# things over different rings.
free = FreeAlgebra(("a", "b"))
print("over free{a, b}:   a*b - b*a =", parse_expression("a*b - b*a", free))
grassmann = GrassmannAlgebra(2)
print("over grassmann(2): v1*v2 + v2*v1 =", parse_expression("v1*v2 + v2*v1", grassmann))
print("over the integers: 1 + 2*3^2 =", parse_expression("1 + 2*3^2", IntegerRing()))
print()

# A matrix document is a JSON header plus a grid of expressions; the
# header names the ring, here FreeAlgebra(("a", "b", "c", "d")).
document = MatrixDocument(
    ring=FreeAlgebra(("a", "b", "c", "d")), n=2, entries=(("a", "b"), ("c", "d"))
)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "generic.json"
    save_matrix(path, document)
    _, matrix = load_matrix(path)
print("loaded matrix:")
print(matrix)
print("its sdet:", symmetric_determinant(matrix))
print()

# The verification suites re-derive the identities mechanically.  The same
# reports are available from the command line, e.g.
#   ncdet verify --suite thm3_1 --seed 42
#   ncdet verify --suite all
for suite in ("prop4_1", "thm3_1", "prop3_3"):
    report = run_verify(suite, seed=42)
    print(report)
    print()
