"""
Bruhat order on S_n, and the poset core every analysis reads.

For a permutation w and 1 <= k, l <= n, the dot table counts
``w[k, l] = |{i <= k : w(i) >= l}|``; then v <= w in Bruhat order iff
every dot-table entry of v is <= the corresponding entry of w.

``PosetView`` holds elements and covering edges and derives the index
and the up- and down-set bitmasks; ``restrict`` reads off the order
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
from typing import Iterator

from .perms import Perm, inversions

Label = tuple[int, int]


# 1 << 14 entries hold all 9,496 involutions of size 10.
@lru_cache(maxsize=1 << 14)
def dot_table(p: Perm) -> tuple[tuple[int, ...], ...]:
    """The n x n grid of counts w[k, l] = |{i <= k : w(i) >= l}|.

    Row index k and column index l are 1-based in the maths; the returned
    grid is indexed ``table[k-1][l-1]``.
    """
    n = len(p)
    rows = []
    prev = [0] * n
    for k in range(1, n + 1):
        v = p[k - 1]
        row = [prev[l - 1] + (1 if v >= l else 0) for l in range(1, n + 1)]
        rows.append(tuple(row))
        prev = row
    return tuple(rows)


@lru_cache(maxsize=1 << 14)
def _flat_table(p: Perm) -> tuple[int, ...]:
    return tuple(entry for row in dot_table(p) for entry in row)


@lru_cache(maxsize=1 << 20)
def bruhat_leq(p: Perm, q: Perm) -> bool:
    """True iff p <= q in the Bruhat order on S_n (dot criterion)."""
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    if p == q:
        return True
    ta, tb = _flat_table(p), _flat_table(q)
    return all(a <= b for a, b in zip(ta, tb))


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
    derived members are computed on first use and cached.
    """

    elements: tuple[Perm, ...]
    covers: tuple[tuple[int, int], ...]
    labels: tuple[Label | None, ...] | None = None

    def __post_init__(self):
        m, covers = len(self.elements), self.covers
        if any(not 0 <= i < j < m for i, j in covers) \
                or any(a >= b for a, b in zip(covers, covers[1:])):
            raise ValueError("covers are not sorted upward position pairs")
        if self.labels is not None and len(self.labels) != len(covers):
            raise ValueError("labels are not aligned with covers")

    @cached_property
    def index(self) -> dict[Perm, int]:
        """Element -> position in ``elements``."""
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Strict up-set of each element as a bitmask over positions."""
        up = [0] * len(self.elements)
        for i, j in reversed(self.covers):  # covers out of j > i came first
            up[i] |= 1 << j | up[j]
        return tuple(up)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Strict down-set of each element as a bitmask over positions."""
        down = [0] * len(self.elements)
        for i, j in self.covers:  # covers into i start below i, so came first
            down[j] |= 1 << i | down[i]
        return tuple(down)

    def restrict(self, subset) -> PosetView:
        """The order induced on ``subset`` of the elements, unlabelled,
        listed in this view's order.

        The highest position below y in the subset is a maximal element
        there, so a lower cover of y; peeling it off with its down-set
        and repeating yields each lower cover once.
        """
        index, down = self.index, self.down
        where = sorted({index[p] for p in subset})
        mask = sum(1 << i for i in where)
        local = {i: k for k, i in enumerate(where)}
        covers = []
        for k, y in enumerate(where):
            below = down[y] & mask
            while below:
                x = below.bit_length() - 1
                covers.append((local[x], k))
                below &= ~(1 << x | down[x])
        return PosetView(elements=tuple(self.elements[i] for i in where),
                         covers=tuple(sorted(covers)))


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
        tables = [_flat_table(p) for p in elements]
        invs = [inversions(p) for p in elements]
        for a_pos, i in enumerate(by_inv):
            ti, inv_i = tables[i], invs[i]
            for j in by_inv[a_pos + 1:]:
                if invs[j] == inv_i:
                    continue
                tj = tables[j]
                if all(x <= y for x, y in zip(ti, tj)):
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
