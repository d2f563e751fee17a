"""
EL-labelling verification for induced involution orders.

An edge labelling of a bounded graded poset is an EL-labelling when
every interval has exactly one saturated chain with a weakly increasing
label word, and that chain is lexicographically minimal among the
interval's chains.  Covers of a class view inherit the rise label of the
ambient involution order when they are covers there, looked up in the
whole order's labelled covers; covers that jump more than one ambient
rank carry no label and make EL verification inapplicable.

``el_check`` takes the bottoms x by descending rank, and by descending
position within a rank, and makes one pass over x's out-edges in
label-key order.  From the sets already built for x's upper covers it
builds, as int bitmasks over the view's positions, the tops y reached
from x by at least one and by at least two weakly increasing chains, the
tops whose lexicographically minimal chain from x rises, and x's closed
up-set.  Each of x's sets holds x's own bit when x belongs in it, so an
edge x -> a reads a's sets as they are stored; only a chain that ends at
a, past a's last edge, needs the one-bit set of a.  That costs
O(covers) big-int operations instead of a chain search per comparable
pair.  ``el_check_by_enumeration`` is the oracle twin that lists every
chain of every interval.

The fixed-point-free class is EL-labelled by the rise labels under the
*reversed* lexicographic label order; the full involution order uses the
standard one.  ``find_escaping_interval`` exhibits why the construction
stops there: for other count sets some length-2 interval of the ambient
order has its increasing or decreasing chain escape the class.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .bruhat import Label, PosetView, bits, bruhat_less
from .chains import (
    Chain,
    DEFAULT_CHAIN_GUARD,
    decreasing_chain,
    increasing_chain,
)
from .fpclasses import (
    FixedPointSpec,
    _positions,
    class_view,
    enumerate_class,
    in_class,
    involution_view,
    is_graded_bruteforce,
    rank_in_involutions,
)
from .perms import Perm, count_involutions, num_fixed_points


class LabelOrder(Enum):
    STANDARD_LEX = "standard-lex"
    REVERSED_LEX = "reversed-lex"

    def key(self, label: Label):
        if self is LabelOrder.STANDARD_LEX:
            return label
        return (-label[0], -label[1])


@dataclass(frozen=True)
class ELReport:
    applicable: bool
    is_el: bool
    violations: tuple[tuple[Perm, Perm, str], ...]


def labelled_class_view(spec: FixedPointSpec) -> PosetView:
    """Class covering graph with each cover carrying its rise label when
    it is also a cover of the full involution order, else None.  The whole
    order and {identity} come labelled; any other class's cover (i, j) is
    looked up in the whole order at the class's positions of i and j."""
    view = class_view(spec)
    if view.labels is not None:
        return view
    whole, where = involution_view(spec.n), _positions(spec)
    labels, k = [], 0
    for i, j in view.covers:  # sorted, and so are the pairs they map to;
        pair = where[i], where[j]  # the whole order's last cover bounds it
        k = bisect_left(whole.covers, pair, k)
        labels.append(whole.labels[k] if whole.covers[k] == pair else None)
    return PosetView(view.elements, view.covers, tuple(labels))


def _el_preconditions(view: PosetView) -> tuple[tuple[int, ...], list]:
    """A labelled view's ranks and (label, upper cover) out-edges, by
    position.  ValueError if it is not graded, not bounded (one element of
    rank 0, one of the top rank) or an element repeats a cover label."""
    ranks = is_graded_bruteforce(view).ranks
    if ranks is None:
        raise ValueError("view is not graded")
    if not ranks.count(0) == 1 == ranks.count(max(ranks)):
        raise ValueError("view is not bounded")
    out: list[list[tuple[Label, int]]] = [[] for _ in ranks]
    for (i, j), label in zip(view.covers, view.labels):
        out[i].append((label, j))
    for x, edges in zip(view.elements, out):
        if len({label for label, _ in edges}) != len(edges):
            raise ValueError(f"element {x} repeats a cover label")
    return ranks, out


def _report(violations: list[tuple[Perm, Perm, str]]) -> ELReport:
    return ELReport(applicable=True, is_el=not violations,
                    violations=tuple(sorted(violations)))


def el_check(view: PosetView, order: LabelOrder) -> ELReport:
    """Verify the EL-labelling condition on every interval of ``view``.

    The view must be fully labelled (reported as not applicable
    otherwise) and pass ``_el_preconditions`` (ValueError otherwise).  A
    violation lists (bottom, top, reason) for its interval.

    Out-edges are taken in increasing label key.  For each bottom x,
    ``one[x][i]`` holds x and the tops y reached from x by at least one
    weakly increasing chain whose first edge is edge i or a later one,
    ``two[x][i]`` the tops reached by at least two such chains, and
    ``below[x][i]`` the tops above some edge before i.  ``up[x]`` is x's
    closed up-set.  As the view is graded, the lexicographically minimal
    chain of [x, y] starts with the lowest-key edge x -> a with a <= y,
    so edge i starts it exactly for the tops on or above its upper end
    outside ``below[x][i]``.  ``lex[x]`` holds x and the tops y whose
    minimal chain from x rises.  An edge x -> a entering a by key k
    continues with a's first edge j of key at least k; when a has no
    such edge (j is past a's last edge), the chain ends at a and both
    sets it contributes are a alone.
    """
    if view.labels is None or None in view.labels:
        return ELReport(applicable=False, is_el=False, violations=())
    ranks, out = _el_preconditions(view)

    # An element's sets are last read by its lowest lower cover.  Bottoms
    # are taken by descending rank, so upper covers come first and each
    # rank's sets are freed one rank later, and by descending position
    # within a rank, which holds all lower covers of an element.
    last_reader = {j: i for i, j in reversed(view.covers)}
    keys, one, two, below, up, lex = ([None] * len(ranks) for _ in range(6))
    violations = []
    for x in sorted(range(len(ranks)), key=lambda x: (-ranks[x], -x)):
        edges = sorted((order.key(label), a) for label, a in out[x])
        keys[x] = [k for k, _ in edges]
        # first edge out of a that keeps a chain entering a by key k rising
        starts = [bisect_left(keys[a], k) for k, a in edges]
        one[x], two[x] = [0] * len(edges), [0] * len(edges)
        rising, several = 1 << x, 0
        for i in reversed(range(len(edges))):
            a, j = edges[i][1], starts[i]
            if j < len(keys[a]):
                c1 = one[a][j]
                several |= two[a][j] | (rising & c1)
            else:
                c1 = 1 << a
            rising |= c1
            one[x][i], two[x][i] = rising, several
        rising ^= 1 << x
        below[x], ux, lex[x] = [], 0, 1 << x
        for (_, a), j in zip(edges, starts):
            below[x].append(ux)
            if j < len(keys[a]):
                lex[x] |= lex[a] & ~(ux | below[a][j])
            else:
                lex[x] |= 1 << a
            ux |= up[a]
        up[x] = ux | 1 << x
        for reason, tops_x in (
            ("no-increasing-chain", ux & ~rising),
            ("multiple-increasing-chains", several),
            ("increasing-not-lex-min", rising & ~several & ~lex[x]),
        ):
            if tops_x:
                violations += [(view.elements[x], view.elements[y], reason)
                               for y in bits(tops_x)]
        for _, a in edges:
            if last_reader[a] == x:
                keys[a] = one[a] = two[a] = below[a] = up[a] = lex[a] = None
    return _report(violations)


def el_check_by_enumeration(view: PosetView, order: LabelOrder) -> ELReport:
    """Oracle twin of ``el_check``, on the same preconditions, that lists
    every chain per interval, refusing one past ``DEFAULT_CHAIN_GUARD``."""
    if view.labels is None or None in view.labels:
        return ELReport(applicable=False, is_el=False, violations=())
    out, down = _el_preconditions(view)[1], view.down

    def chains(x: int, y: int) -> list[tuple[Label, ...]]:
        found: list[tuple[Label, ...]] = []

        def walk(here: int, word: list[Label]):
            if here == y:
                found.append(tuple(word))
                if len(found) > DEFAULT_CHAIN_GUARD:
                    raise RuntimeError("chain guard exceeded")
                return
            for label, z in out[here]:
                if down[y] >> z & 1:
                    word.append(label)
                    walk(z, word)
                    word.pop()

        walk(x, [])
        return found

    violations = []
    for y, down_y in enumerate(down):
        for x in bits(down_y ^ 1 << y):
            keyed = [tuple(map(order.key, w)) for w in chains(x, y)]
            rising = [kw for kw in keyed
                      if all(a <= b for a, b in zip(kw, kw[1:]))]
            reason = ("no-increasing-chain" if not rising
                      else "multiple-increasing-chains" if len(rising) > 1
                      else "increasing-not-lex-min" if rising[0] != min(keyed)
                      else None)
            if reason:
                violations.append((view.elements[x], view.elements[y], reason))
    return _report(violations)


def fpf_decreasing_chain(p: Perm, q: Perm) -> tuple[bool, Chain]:
    """For p < q fixed-point-free, the decreasing ambient chain and
    whether all its interior elements are fixed-point-free too."""
    for w in (p, q):
        if num_fixed_points(w) != 0:
            raise ValueError(f"{w} has fixed points")
    chain = decreasing_chain(p, q)
    holds = all(num_fixed_points(w) == 0 for w in chain.elements[1:-1])
    return holds, chain


def find_escaping_interval(spec: FixedPointSpec, kind: str = "any"
                           ) -> tuple[Perm, Perm, str] | None:
    """A pair p < q in the class whose increasing (or decreasing) chain
    in the ambient involution order has length 2 with its midpoint
    outside the class.

    Only meaningful off the fixed-point-free class: requires counts
    other than {0} and {n}, and a class smaller than all involutions.
    Searches ambient-rank-difference-2 pairs in word order; absence
    within that bound proves nothing beyond it.
    """
    if kind not in ("any", "increasing", "decreasing"):
        raise ValueError(f"bad kind {kind!r}")
    n = spec.n
    if spec.counts == {0}:
        raise ValueError("the fixed-point-free class is excluded")
    if spec.counts == {n}:
        raise ValueError("the one-element class {identity} is excluded")
    elements = enumerate_class(spec)
    if len(elements) == count_involutions(n):
        raise ValueError("the class is the whole involution order")
    by_rank: dict[int, list[Perm]] = {}
    for p in elements:
        by_rank.setdefault(rank_in_involutions(p), []).append(p)
    for r in sorted(by_rank):
        for p in by_rank[r]:
            for q in by_rank.get(r + 2, ()):
                if not bruhat_less(p, q):
                    continue
                if kind in ("any", "increasing"):
                    mid = increasing_chain(p, q).elements[1]
                    if not in_class(mid, spec):
                        return p, q, "increasing"
                if kind in ("any", "decreasing"):
                    mid = decreasing_chain(p, q).elements[1]
                    if not in_class(mid, spec):
                        return p, q, "decreasing"
    return None
