"""Query generation for the chains-n8 workload, independent of the package.

The Bruhat order is computed here from the dot criterion on packed
integers, not through ``invbruhat``, so the measured process receives
only argv lists and a change to the package's order code cannot change
which queries a seed selects.
"""

from __future__ import annotations

import functools
import random

N = 8
QUERIES_PER_PASS = 1500
# Exact shares of a pass, shuffled, so the kind mix does not vary by seed.
KIND_SHARES = (("increasing", 0.45), ("decreasing", 0.45), ("all", 0.10))
# Strictly comparable pairs x < y of the n = 8 involution order.
EXPECTED_COMPARABLE_PAIRS = 117_869

_FIELD = 5  # bits per dot-table entry: 4 for a count <= 8, 1 guard bit


def involutions(n: int) -> list[str]:
    """Every involution of S_n as a compact word, in lexicographic order."""
    out = []

    def extend(word: list[int], free: list[int]) -> None:
        if not free:
            out.append("".join(map(str, word)))
            return
        i, rest = free[0], free[1:]
        word[i - 1] = i
        extend(word, rest)
        for k, j in enumerate(rest):
            word[i - 1], word[j - 1] = j, i
            extend(word, rest[:k] + rest[k + 1:])
            word[j - 1] = 0
        word[i - 1] = 0

    extend([0] * n, list(range(1, n + 1)))
    return sorted(out)


@functools.lru_cache(maxsize=None)
def rank(word: str) -> int:
    """Rank in the involution order, (inv + exc) / 2, from a compact word."""
    w = [int(ch) for ch in word]
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    exc = sum(1 for i in range(n) if w[i] > i + 1)
    return (inv + exc) // 2


def _packed_dot_table(word: str) -> int:
    """Dot-table counts |{i <= k : w(i) >= l}| packed into one int."""
    w = [int(ch) for ch in word]
    n = len(w)
    packed, shift, row = 0, 0, [0] * n
    for k in range(n):
        for l in range(n):
            row[l] += w[k] >= l + 1
            packed |= row[l] << shift
            shift += _FIELD
    return packed


def comparable_pairs(n: int) -> list[tuple[str, str]]:
    """All pairs x < y of involutions of S_n in Bruhat order."""
    words = involutions(n)
    tables = [_packed_dot_table(w) for w in words]
    guard = sum(1 << (_FIELD * f + _FIELD - 1) for f in range(n * n))
    pairs = []
    for x, tx in zip(words, tables):
        for y, ty in zip(words, tables):
            # Every field of (ty | guard) - tx keeps its guard bit iff
            # the entry of y is >= the entry of x.
            if x != y and ((ty | guard) - tx) & guard == guard:
                pairs.append((x, y))
    return pairs


def chain_counts(pairs: list[tuple[str, str]]) -> dict[tuple[str, str], int]:
    """Number of maximal chains of every interval [x, y], x < y.

    The order is graded by ``rank``, so the covers are the comparable
    pairs one rank apart, and chains to y are summed over y's lower covers.
    """
    ranks = {w: rank(w) for pair in pairs for w in pair}
    above: dict[str, list[str]] = {}
    below: dict[str, list[str]] = {}
    for x, y in pairs:
        above.setdefault(x, []).append(y)
        if ranks[y] == ranks[x] + 1:
            below.setdefault(y, []).append(x)
    counts = {}
    for x, ups in above.items():
        here = {x: 1}
        for y in sorted(ups, key=ranks.__getitem__):
            here[y] = sum(here.get(z, 0) for z in below[y])
            counts[(x, y)] = here[y]
    return counts


def _systematic(rng: random.Random, population: list, k: int) -> list:
    """k items at even steps from a random start: each item is drawn with
    the same probability, and every stretch of the list gets its share."""
    step = len(population) / k
    start = rng.random() * step
    return [population[int(start + i * step)] for i in range(k)]


def chains_queries(seed: int) -> tuple[list[list[str]], list[int]]:
    """One pass of chains argv lists, and the chain count of each interval.

    Every comparable pair is equally likely for every query.  Each kind
    draws its pairs systematically from all pairs in a seeded random
    order stably sorted by chain count, so a seed changes which intervals
    are asked but not how many chains they hold: the cost of an ``all``
    query grows with its chain count, and a plain random draw made the
    pass time vary by half between seeds.
    """
    pairs = comparable_pairs(N)
    if len(pairs) != EXPECTED_COMPARABLE_PAIRS:
        raise AssertionError(f"{len(pairs)} comparable pairs at n = {N}")
    chains = chain_counts(pairs)
    rng = random.Random(seed)
    rng.shuffle(pairs)
    pairs.sort(key=chains.__getitem__)
    drawn = []
    for kind, share in KIND_SHARES:
        k = round(share * QUERIES_PER_PASS)
        drawn += [(kind, p) for p in _systematic(rng, pairs, k)]
    rng.shuffle(drawn)
    argvs = [["chains", "--n", str(N), "--from", x, "--to", y, "--kind", kind]
             for kind, (x, y) in drawn]
    return argvs, [chains[p] for _, p in drawn]
