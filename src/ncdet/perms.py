"""Permutation enumeration with signs.

``signed_permutations`` lists all of S_n in lexicographic order paired
with signs from inversion parity.  The standard polynomial S_4 sums over
it; the determinant core sweeps row and column sets and needs no list
of permutations.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Sequence


def perm_sign(images: Sequence[int]) -> int:
    """Sign of a permutation given as an image sequence, by inversion parity."""
    inversions = 0
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All permutations of range(n), lexicographic order, with their signs."""
    return tuple((p, perm_sign(p)) for p in permutations(range(n)))

