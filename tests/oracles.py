"""Independent oracles used to cross-check the library's primary routes.

Nothing here shares code with the package internals: permutations come
from Heap's algorithm with the sign maintained by swap parity, the
double-sum determinant and preadjoint are evaluated directly from their
definitions, free-algebra products concatenate tuple words and render in
(length, word) order, exterior-algebra products take each sign from an
inversion count of the concatenated generator indices, and commutator-subgroup
membership is decided by integer lattice reduction over an explicit basis
of monomial commutators.
"""

from __future__ import annotations

from itertools import product

from ncdet import FreePoly, Matrix


def heap_signed_permutations(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All permutations of range(n) by Heap's algorithm; sign flips per swap."""
    perm = list(range(n))
    sign = 1
    out = [(tuple(perm), sign)]
    counters = [0] * n
    i = 0
    while i < n:
        if counters[i] < i:
            if i % 2 == 0:
                perm[0], perm[i] = perm[i], perm[0]
            else:
                perm[counters[i]], perm[i] = perm[i], perm[counters[i]]
            sign = -sign
            out.append((tuple(perm), sign))
            counters[i] += 1
            i = 0
        else:
            counters[i] = 0
            i += 1
    return out


def sdet_double_sum(A: Matrix):
    """Symmetric determinant straight from the double permutation sum."""
    perms = heap_signed_permutations(A.n)
    total = A.ring.zero
    for alpha, sign_a in perms:
        for beta, sign_b in perms:
            prod = A.ring.one
            for t in range(A.n):
                prod = prod * A.rows[alpha[t]][beta[t]]
            total = total + prod if sign_a == sign_b else total - prod
    return total


def preadjoint_double_sum(A: Matrix) -> Matrix:
    """Preadjoint straight from its definition: entry (r, s) sums the pairs
    (alpha, beta) with alpha(s) = s and beta(s) = r, taking the ordered
    product over every position except s."""
    n = A.n
    perms = heap_signed_permutations(n)
    out = []
    for r in range(n):
        row = []
        for s in range(n):
            total = A.ring.zero
            for alpha, sign_a in perms:
                if alpha[s] != s:
                    continue
                for beta, sign_b in perms:
                    if beta[s] != r:
                        continue
                    prod = A.ring.one
                    for t in range(n):
                        if t != s:
                            prod = prod * A.rows[alpha[t]][beta[t]]
                    total = total + prod if sign_a == sign_b else total - prod
            row.append(total)
        out.append(row)
    return Matrix(A.ring, out)


def free_product(x, y) -> dict[tuple[int, ...], int]:
    """Terms of x*y in the free algebra, from the public ``terms`` only: each
    pair of words concatenates."""
    out: dict[tuple[int, ...], int] = {}
    for left, c1 in x.terms.items():
        for right, c2 in y.terms.items():
            word = left + right
            out[word] = out.get(word, 0) + c1 * c2
    return {word: coeff for word, coeff in out.items() if coeff}


def deglex_text(names, terms: dict[tuple[int, ...], int]) -> str:
    """Canonical text of free-algebra terms: words by (length, word), the
    first sign only when negative, and no coefficient of magnitude 1."""
    out = ""
    for word in sorted(terms, key=lambda w: (len(w), w)):
        coeff = terms[word]
        body = "*".join(names[i] for i in word)
        if not body:
            body = str(abs(coeff))
        elif abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        if out:
            out += (" - " if coeff < 0 else " + ") + body
        else:
            out = ("-" if coeff < 0 else "") + body
    return out or "0"


def grassmann_product(x, y) -> dict[tuple[int, ...], int]:
    """Terms of x*y in the exterior algebra, from the public ``terms`` only.

    Each pair of basis monomials with no common generator multiplies to the
    sorted union, signed by the parity of the inversions of the two index
    tuples written one after the other.
    """
    out: dict[tuple[int, ...], int] = {}
    for left, c1 in x.terms.items():
        for right, c2 in y.terms.items():
            if set(left) & set(right):
                continue
            word = left + right
            inversions = sum(
                1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
            )
            key = tuple(sorted(word))
            out[key] = out.get(key, 0) + (-1) ** inversions * c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


def words_up_to(num_generators: int, max_degree: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        out.extend(product(range(num_generators), repeat=degree))
    return out


def integer_span_contains(basis_rows: list[list[int]], target: list[int]) -> bool:
    """Membership of target in the Z-span of basis_rows, by integer elimination."""
    rows = [row[:] for row in basis_rows if any(row)]
    remaining = target[:]
    cols = len(target)
    rank = 0
    for col in range(cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            while rows[i][col]:
                q = rows[rank][col] // rows[i][col]
                rows[rank] = [a - q * b for a, b in zip(rows[rank], rows[i])]
                rows[rank], rows[i] = rows[i], rows[rank]
        rank += 1
        if rank == len(rows):
            break
    for row in rows[:rank]:
        lead = next(c for c, a in enumerate(row) if a)
        if remaining[lead] % row[lead] == 0:
            q = remaining[lead] // row[lead]
            remaining = [a - q * b for a, b in zip(remaining, row)]
    return all(a == 0 for a in remaining)


def cyclic_span_oracle(p: FreePoly) -> bool:
    """[R,R] membership by the cyclic-word criterion on the public tuple words:
    the coefficients sum to zero over each class of rotations, the empty word
    being a class of its own."""
    sums: dict[tuple[int, ...], int] = {}
    for word, coeff in p.terms.items():
        rep = min((word[i:] + word[:i] for i in range(len(word))), default=())
        sums[rep] = sums.get(rep, 0) + coeff
    return all(total == 0 for total in sums.values())


def commutator_span_oracle(p: FreePoly, max_degree: int | None = None) -> bool:
    """Brute-force [R,R] membership over monomial commutators up to a degree cap.

    The commutator subgroup is graded by word length, so commutators of
    total degree up to deg(p) span every relevant component exactly.
    """
    if p.is_zero():
        return True
    if max_degree is None:
        max_degree = p.degree()
    num_generators = len(p.algebra.names)
    words = words_up_to(num_generators, max_degree)
    index = {w: i for i, w in enumerate(words)}
    monomials = [w for w in words if w]

    basis = []
    seen = set()
    for u in monomials:
        for v in monomials:
            if len(u) + len(v) > max_degree:
                continue
            uv, vu = u + v, v + u
            if uv == vu:
                continue
            key = (min(uv, vu), max(uv, vu))
            if key in seen:
                continue
            seen.add(key)
            row = [0] * len(words)
            row[index[uv]] += 1
            row[index[vu]] -= 1
            basis.append(row)

    target = [0] * len(words)
    for word, coeff in p.terms.items():
        target[index[word]] = coeff
    return integer_span_contains(basis, target)
