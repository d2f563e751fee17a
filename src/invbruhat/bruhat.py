"""
Bruhat order on S_n, and the poset core every analysis reads.

For a permutation w and 1 <= k, l <= n, the dot table counts
``w[k, l] = |{i <= k : w(i) >= l}|``; then v <= w in Bruhat order iff
every entry of v's table is <= that of w's: one subtraction on the
tables packed into ints, 5 bits an entry.

``PosetView`` holds elements and covering edges and derives the closed
down-set bitmasks (each element's down-set includes the element);
``restrict`` reads off the order induced on a subset of positions, so a
class view is the involution order (built from the covering moves)
restricted to the class, and ``drop_bottom`` drops position 0 with no
peel.  Covers are sorted position pairs (i, j) with i < j, so a view
lists its elements in a linear extension and every walk over the order
walks the positions.  Word order is one: if v < w differ first at
position i, the dot criterion on row i gives v(i) < w(i).
``UniverseIndex`` and ``poset_view`` compute the order on an explicit
universe by the dot criterion alone: they are the oracle the covering
moves are checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, starmap
from operator import itemgetter, lt
from typing import Iterator

from .perms import MAX_N, Perm, inversions

Label = tuple[int, int]


# A packed dot table gives each entry _FIELD bits: four value bits, which
# hold every count up to 15 >= MAX_N, and a guard bit left clear.
_FIELD = 5
_GUARDS = tuple(sum(1 << _FIELD * f + _FIELD - 1 for f in range(n * n))
                for n in range(MAX_N + 1))  # the guard bits, per size n


# 1 << 14 entries hold all 9,496 involutions of size 10, not the 35,696 of
# size 11; no command builds a whole order from dot tables.
@lru_cache(maxsize=1 << 14)
def dot_table(p: Perm) -> int:
    """The counts w[k, l] = |{i <= k : w(i) >= l}|, entry (k, l) packed
    into the ``_FIELD`` bits from bit ``_FIELD * ((k-1) n + l - 1)``."""
    n = len(p)
    packed = row = 0
    for k, v in enumerate(p):
        row += sum(1 << _FIELD * l for l in range(v))  # entries l <= v gain one
        packed |= row << _FIELD * n * k
    return packed


# Point queries (chains) repeat comparisons: a traced chains-n8 pass (seed
# 11) answers 40,001 of its 81,267 calls from this cache and fills 40,253
# to 41,343 of its 65,536 entries (seeds 1, 5, 11, 12).  perfbench/run.py
# also reports its cache_info, so it is not dead weight.
@lru_cache(maxsize=1 << 16)
def bruhat_leq(p: Perm, q: Perm) -> bool:
    """True iff p <= q in the Bruhat order on S_n (dot criterion): each
    field of (Q | G) - P, G the guard bits, keeps its guard bit iff q's
    entry is >= p's, and no borrow crosses a field."""
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    guard = _GUARDS[len(p)]
    return (dot_table(q) | guard) - dot_table(p) & guard == guard


def bruhat_less(p: Perm, q: Perm) -> bool:
    return p != q and bruhat_leq(p, q)


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PosetView:
    """A finite poset given by its elements and covering edges.

    ``covers`` holds the sorted position pairs (i, j), i < j, such that
    ``elements[j]`` covers ``elements[i]``.  ``labels`` is None or aligned
    with ``covers``: a cover's rise label when it is a cover of the ambient
    involution order, else None.  Both are checked on construction; the
    closed down-sets are computed on first use and cached.
    """

    elements: tuple[Perm, ...]
    covers: tuple[tuple[int, int], ...]
    labels: tuple[Label | None, ...] | None = None

    def __post_init__(self):
        m, covers = len(self.elements), self.covers
        # Strictly sorted pairs with i < j; the first then holds the least i.
        if covers and not (all(map(lt, covers, covers[1:]))
                           and all(starmap(lt, covers))
                           and covers[0][0] >= 0
                           and max(map(itemgetter(1), covers)) < m):
            raise ValueError("covers are not sorted upward position pairs")
        if self.labels is not None and len(self.labels) != len(covers):
            raise ValueError("labels are not aligned with covers")

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Closed down-set of each element, itself included, as a bitmask
        over positions."""
        down = [1 << i for i in range(len(self.elements))]
        for i, j in self.covers:  # covers into i start below i, so came first
            down[j] |= down[i]
        return tuple(down)

    def restrict(self, where) -> PosetView:
        """The order induced on the elements at the ascending positions
        ``where``, listed in this view's order and unlabelled even when
        this view is labelled.

        The highest position below y in the subset is a maximal element
        there, so a lower cover of y; peeling it off with its closed
        down-set and repeating yields each lower cover once.  Each cover
        is filed under its lower end as y ascends, so reading the files
        in order gives the covers sorted.
        """
        down = self.down
        mask = sum(1 << i for i in where)
        local = [0] * len(down)  # position here -> position in the subset
        for k, i in enumerate(where):
            local[i] = k
        files = [[] for _ in where]  # the covers out of each element
        for k, y in enumerate(where):
            below = down[y] & mask ^ 1 << y
            while below:
                x = below.bit_length() - 1
                i = local[x]
                files[i].append((i, k))
                below ^= below & down[x]  # drop x and its down-set
        return PosetView(elements=tuple(map(self.elements.__getitem__, where)),
                         covers=tuple(chain.from_iterable(files)))

    def drop_bottom(self) -> PosetView:
        """The order induced on every element but the one at position 0.
        That element is minimal, so only its own covers go, and every
        other cover moves down one position.  The result is unlabelled."""
        rest = self.covers[bisect_left(self.covers, (1,)):]
        return PosetView(elements=self.elements[1:],
                         covers=tuple([(i - 1, j - 1) for i, j in rest]))


class UniverseIndex:
    """Bitset index of the induced Bruhat order on a fixed element set,
    built by the dot criterion alone: strict up-sets and down-sets are
    int bitmasks over the positions of the sorted elements."""

    def __init__(self, universe):
        elements = tuple(sorted(set(universe)))
        if not elements:
            raise ValueError("empty universe")
        sizes = {len(p) for p in elements}
        if len(sizes) != 1:
            raise ValueError(f"mixed sizes in universe: {sorted(sizes)}")
        self.elements = elements
        self.index = {p: i for i, p in enumerate(elements)}
        m = len(elements)
        up = [0] * m  # up[i]: strict up-set of element i, as a bitmask
        down = [0] * m
        # Bruhat comparability needs strictly fewer inversions below, so
        # only pairs with inv(a) < inv(b) are tested.
        by_inv = sorted(range(m), key=lambda i: inversions(elements[i]))
        guard = _GUARDS[len(elements[0])]
        tables = [dot_table(p) for p in elements]
        invs = [inversions(p) for p in elements]
        for a_pos, i in enumerate(by_inv):
            ti, inv_i = tables[i], invs[i]
            for j in by_inv[a_pos + 1:]:
                if invs[j] == inv_i:
                    continue
                if (tables[j] | guard) - ti & guard == guard:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        self.up = up
        self.down = down

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) where j covers i in the induced order."""
        pairs = []
        for i in range(len(self.elements)):
            up_i = self.up[i]
            for j in bits(up_i):
                if not up_i & self.down[j]:
                    pairs.append((i, j))
        return pairs


def poset_view(universe) -> PosetView:
    """Covering edges of the order induced on ``universe``.

    An edge x -> y means y covers x: x < y with no universe element
    strictly between.
    """
    idx = UniverseIndex(universe)
    return PosetView(elements=idx.elements, covers=tuple(idx.cover_pairs()))
