"""
Bruhat order on S_n, and the poset core every analysis reads.

For a permutation w and 1 <= k, l <= n, the dot table counts
``w[k, l] = |{i <= k : w(i) >= l}|``; then v <= w in Bruhat order iff
every dot-table entry of v is <= the corresponding entry of w.

``PosetView`` holds elements and covering edges and derives the index
and the up- and down-set bitmasks; ``restrict`` reads off the order
induced on a subset, so a class view is the involution order (built
from the covering moves) restricted to the class.  ``UniverseIndex``
and ``poset_view`` compute the order on an explicit universe by the dot
criterion alone: they are the oracle the covering moves are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from graphlib import CycleError, TopologicalSorter
from typing import Iterator

from .perms import Perm, inversions

Label = tuple[int, int]


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


def interval(p: Perm, q: Perm, universe) -> tuple[Perm, ...]:
    """All z in ``universe`` with p <= z <= q, endpoints included.

    Raises if p is not below q; the universe is any iterable of
    permutations of the same size.
    """
    if not bruhat_leq(p, q):
        raise ValueError(f"{p} is not <= {q} in Bruhat order")
    return tuple(
        sorted(z for z in universe if bruhat_leq(p, z) and bruhat_leq(z, q))
    )


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PosetView:
    """A finite poset given by its elements and covering edges.

    An edge (x, y) means y covers x.  ``labels`` maps a covering edge to
    its rise label when one is known (an edge of the ambient involution
    order) and to None otherwise.  The derived members are computed on
    first use and cached.
    """

    elements: tuple[Perm, ...]
    covers: tuple[tuple[Perm, Perm], ...]
    labels: dict[tuple[Perm, Perm], Label | None] | None = None

    @cached_property
    def index(self) -> dict[Perm, int]:
        """Element -> position in ``elements``."""
        return {p: i for i, p in enumerate(self.elements)}

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Strict up-set of each element as a bitmask over positions."""
        return self._reach(self.covers)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Strict down-set of each element as a bitmask over positions."""
        return self._reach((b, a) for a, b in self.covers)

    def _reach(self, edges) -> tuple[int, ...]:
        """Transitive closure of ``edges`` as bitmasks, taken in reverse
        topological order.  A cycle raises ValueError."""
        after: dict[int, list[int]] = {i: [] for i in range(len(self.elements))}
        for a, b in edges:
            after[self.index[a]].append(self.index[b])
        reach = [0] * len(after)
        try:
            # edge targets come out first, so their masks are final
            for i in TopologicalSorter(after).static_order():
                for j in after[i]:
                    reach[i] |= (1 << j) | reach[j]
        except CycleError:
            raise ValueError("covering graph has a cycle; not a poset view") from None
        return tuple(reach)

    def restrict(self, subset) -> PosetView:
        """The order induced on ``subset`` of the elements, unlabelled.

        y covers x in the subset iff y is above x and no subset element
        lies strictly between them.
        """
        index, up, down = self.index, self.up, self.down
        elements = tuple(sorted(set(subset)))
        mask = sum(1 << index[p] for p in elements)
        covers = []
        for x in elements:
            above = up[index[x]] & mask
            for j in bits(above):
                if not above & down[j]:
                    covers.append((x, self.elements[j]))
        return PosetView(elements=elements, covers=tuple(sorted(covers)))


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

    bits = staticmethod(bits)

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
    covers = tuple(
        sorted((idx.elements[i], idx.elements[j]) for i, j in idx.cover_pairs())
    )
    return PosetView(elements=idx.elements, covers=covers)
