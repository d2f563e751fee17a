"""
Permutations of {1..n} in one-line notation.

A permutation is a tuple ``(w(1), ..., w(n))`` of the values 1..n, each
appearing once; position ``i`` (1-based) holds the image of ``i``.  All
values are immutable tuples, so they hash, compare, and can be shared
freely.  Sizes are capped at MAX_N to keep exhaustive sweeps in memory.

Two textual forms are understood, both in ASCII decimal digits: compact
digit strings like ``426153`` (only for n <= 9, where they are
unambiguous) and comma-separated words like ``4,2,6,1,5,3`` (any size).  ``format_perm`` emits the compact form
whenever it is unambiguous; parse/format round-trips are exact.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations as _all_perms
from typing import Iterator, Sequence

Perm = tuple[int, ...]

MAX_N = 12

_DECIMAL = re.compile("-?[0-9]+")


def check_perm(word: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    word = tuple(word)
    n = len(word)
    if n < 1:
        raise ValueError("permutation must have size >= 1")
    if n > MAX_N:
        raise ValueError(f"size {n} exceeds the supported cap {MAX_N}")
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word}")
    return word


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def reversal(n: int) -> Perm:
    """The word n(n-1)...1, the Bruhat maximum of S_n."""
    return tuple(range(n, 0, -1))


def compose(p: Perm, q: Perm) -> Perm:
    """Return the product applying ``q`` first: result(x) = p(q(x)).

    >>> compose((2, 1, 3, 4), (1, 2, 4, 3))
    (2, 1, 4, 3)
    """
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v - 1] for v in q)


def is_involution(p: Perm) -> bool:
    """True iff p(p(x)) = x for all x."""
    return all(p[v - 1] == i + 1 for i, v in enumerate(p))


def statistics(p: Perm) -> tuple[int, int, tuple[int, ...]]:
    """Return (inversions, exceedances, sorted fixed points) of ``p``.

    >>> statistics((4, 2, 6, 1, 5, 3))
    (8, 2, (2, 5))
    """
    n = len(p)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
    exc = sum(1 for i in range(n) if p[i] > i + 1)
    fixed = tuple(i + 1 for i in range(n) if p[i] == i + 1)
    return inv, exc, fixed


def inversions(p: Perm) -> int:
    return statistics(p)[0]


def num_fixed_points(p: Perm) -> int:
    return sum(1 for i, v in enumerate(p) if v == i + 1)


def count_involutions(n: int) -> int:
    """Number of involutions in S_n by the standard recurrence."""
    a, b = 1, 1  # counts for sizes 0 and 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


@lru_cache(maxsize=8)
def enumerate_involutions(n: int) -> tuple[Perm, ...]:
    """All involutions of S_n in lexicographic order of one-line words.
    The least unplaced position i is fixed first, then paired with each
    larger unplaced j in increasing order, so the value at i, the first
    position still open, only grows."""
    if n > MAX_N:
        raise ValueError(f"size {n} exceeds the supported cap {MAX_N}")
    word = [0] * n

    def extend(free: tuple[int, ...]) -> Iterator[Perm]:
        if not free:
            yield tuple(word)
            return
        i = free[0]
        word[i - 1] = i
        yield from extend(free[1:])
        for k, j in enumerate(free[1:], start=1):
            word[i - 1], word[j - 1] = j, i
            yield from extend(free[1:k] + free[k + 1:])
        word[i - 1] = 0

    return tuple(extend(tuple(range(1, n + 1))))


def brute_force_involutions(n: int) -> tuple[Perm, ...]:
    """Oracle: filter all n! permutations by p*p = id.  Keep n small."""
    ident = identity(n)
    return tuple(
        p for p in _all_perms(range(1, n + 1)) if compose(p, p) == ident
    )


def parse_decimal(text: str) -> int:
    """An integer in ASCII decimal digits, after an optional minus sign,
    with surrounding whitespace stripped.  ``int`` alone would also take
    ``_`` separators and non-ASCII digits."""
    text = text.strip()
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_perm(text: str) -> Perm:
    """Parse a one-line word from compact digits or a comma-separated list.

    >>> parse_perm("426153")
    (4, 2, 6, 1, 5, 3)
    >>> parse_perm("4,2,6,1,5,3")
    (4, 2, 6, 1, 5, 3)
    """
    text = text.strip()
    compact = "," not in text
    try:
        if compact:  # the digits checked at once; a sign fails int(ch)
            parse_decimal(text)
            word = [int(ch) for ch in text]
        else:
            word = [parse_decimal(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad permutation word: {text!r}") from None
    if compact and len(word) > 9:
        raise ValueError(
            f"digit-string form is ambiguous for n > 9: {text!r}; use commas"
        )
    return check_perm(word)


def format_perm(p: Perm) -> str:
    """Inverse of parse_perm: compact digits for n <= 9, commas otherwise.

    >>> format_perm((4, 2, 6, 1, 5, 3))
    '426153'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)
