"""
Bruhat order on S_n, and the poset core every analysis reads.

For a permutation w and 1 <= k, l <= n, the dot table counts
``w[k, l] = |{i <= k : w(i) >= l}|``; then v <= w in Bruhat order iff
every entry of v's table is <= that of w's: one subtraction on the
tables packed into ints, 5 bits an entry.

``PosetView`` holds elements and covering edges and derives the index
and the down-set bitmasks; ``restrict`` reads off the order
induced on a subset, so a class view is the involution order (built from
the covering moves) restricted to the class.  Covers are sorted position
pairs (i, j) with i < j, so a view lists its elements in a linear
extension and every walk over the order walks the positions.  Word order
is one: if v < w differ first at position i, the dot criterion on row i
gives v(i) < w(i).  ``UniverseIndex`` and ``poset_view`` compute the
order on an explicit universe by the dot criterion alone: they are the
oracle the covering moves are checked against.
"""

from __future__ import annotations

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


# 1 << 14 entries hold all 9,496 involutions of size 10.
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


# Kept for perfbench's tracer, which reads its cache_info; a chains-n8 pass
# fills 40,182 to 41,266 of its 65,536 entries (seeds 1, 5 and 12).
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
    derived members, the index and the down-sets, are computed on first
    use and cached.
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
    def index(self) -> dict[Perm, int]:
        """Element -> position in ``elements``."""
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Strict down-set of each element as a bitmask over positions."""
        down = [0] * len(self.elements)
        for i, j in self.covers:  # covers into i start below i, so came first
            down[j] |= 1 << i | down[i]
        return tuple(down)

    def restrict(self, subset) -> PosetView:
        """The order induced on ``subset`` of the elements, listed in this
        view's order and unlabelled even when this view is labelled.

        The highest position below y in the subset is a maximal element
        there, so a lower cover of y; peeling it off with its down-set
        and repeating yields each lower cover once.  Each cover is filed
        under its lower end as y ascends, so reading the files in order
        gives the covers sorted.
        """
        index, down = self.index, self.down
        where = sorted({index[p] for p in subset})
        mask = sum(1 << i for i in where)
        local = [0] * len(down)  # position here -> position in the subset
        for k, i in enumerate(where):
            local[i] = k
        files = [[] for _ in where]  # the covers out of each element
        for k, y in enumerate(where):
            below = down[y] & mask
            while below:
                x = below.bit_length() - 1
                i = local[x]
                files[i].append((i, k))
                below ^= (below & down[x]) | (1 << x)  # drop x and its down-set
        return PosetView(elements=tuple(self.elements[i] for i in where),
                         covers=tuple(chain.from_iterable(files)))


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
