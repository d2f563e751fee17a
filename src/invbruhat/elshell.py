"""
EL-labelling verification for induced involution orders.

An edge labelling of a bounded graded poset is an EL-labelling when
every interval has exactly one saturated chain with a weakly increasing
label word, and that chain is lexicographically minimal among the
interval's chains.  Covers of a class view inherit the rise label of the
ambient involution order when they are covers there; covers that jump
more than one ambient rank carry no label and make EL verification
inapplicable.  The checks read a view's index and up-set bitmasks
(``bruhat.PosetView``) plus the labelled out-edges of each element;
``el_check_by_enumeration`` is the oracle twin that lists every chain.

The fixed-point-free class is EL-labelled by the rise labels under the
*reversed* lexicographic label order; the full involution order uses the
standard one.  ``find_escaping_interval`` exhibits why the construction
stops there: for other count sets some length-2 interval of the ambient
order has its increasing or decreasing chain escape the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bruhat import PosetView, bits, bruhat_less
from .chains import Chain, decreasing_chain, increasing_chain
from .fpclasses import (
    FixedPointSpec,
    class_view,
    enumerate_class,
    in_class,
    is_graded_bruteforce,
    rank_in_involutions,
)
from .moves import Label, cover_map
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
    it is also a cover of the full involution order, else None."""
    view = class_view(spec)
    labels: dict[tuple[Perm, Perm], Label | None] = {}
    for x, y in view.covers:
        labels[(x, y)] = cover_map(x).get(y)
    return PosetView(elements=view.elements, covers=view.covers, labels=labels)


def _labelled_out_edges(view: PosetView) -> list[list[tuple[Label, int]]]:
    """(label, position of the upper cover) for each element's covers."""
    out: list[list[tuple[Label, int]]] = [[] for _ in view.elements]
    for (a, b), label in view.labels.items():
        out[view.index[a]].append((label, view.index[b]))
    return out


def _greedy_lex_min(out, up, x: int, y: int, order: LabelOrder) -> tuple[Label, ...]:
    """Label word of the lex-minimal x-y chain inside the view interval.

    Greedy choice of the smallest feasible label is lex-minimal because
    all chains of an interval in a graded poset have equal length.
    """
    word = []
    here = x
    while here != y:
        feasible = [
            (label, z) for label, z in out[here]
            if z == y or (up[z] >> y) & 1
        ]
        label, here = min(feasible, key=lambda lz: order.key(lz[0]))
        word.append(label)
    return tuple(word)


def _increasing_chains(out, up, x: int, y: int, order: LabelOrder,
                       cap: int = 2) -> list[tuple[Label, ...]]:
    """Label words of weakly increasing x-y chains, at most ``cap`` found."""
    found: list[tuple[Label, ...]] = []

    def walk(here: int, last: Label | None, word: list[Label]):
        if here == y:
            found.append(tuple(word))
            return
        for label, z in out[here]:
            if len(found) >= cap:
                return
            if last is not None and order.key(label) < order.key(last):
                continue
            if z == y or (up[z] >> y) & 1:
                word.append(label)
                walk(z, label, word)
                word.pop()

    walk(x, None, [])
    return found


def _report(violations: list[tuple[Perm, Perm, str]]) -> ELReport:
    return ELReport(applicable=True, is_el=not violations,
                    violations=tuple(sorted(violations)))


def el_check(view: PosetView, order: LabelOrder) -> ELReport:
    """Verify the EL-labelling condition on every interval of ``view``.

    The view must be bounded and graded (ValueError otherwise) and fully
    labelled (reported as not applicable otherwise).  A violation lists
    (bottom, top, reason) for its interval.
    """
    if view.labels is None or any(l is None for l in view.labels.values()):
        return ELReport(applicable=False, is_el=False, violations=())
    if not is_graded_bruteforce(view).graded:
        raise ValueError("view is not graded")
    tops = set(view.elements) - {a for a, _ in view.covers}
    bottoms = set(view.elements) - {b for _, b in view.covers}
    if len(bottoms) != 1 or len(tops) != 1:
        raise ValueError("view is not bounded")
    out, up = _labelled_out_edges(view), view.up
    for x, edges in zip(view.elements, out):
        if len({label for label, _ in edges}) != len(edges):
            raise ValueError(f"element {x} repeats a cover label")

    violations = []
    for x, up_x in enumerate(up):
        for y in bits(up_x):
            increasing = _increasing_chains(out, up, x, y, order)
            if len(increasing) != 1:
                reason = "no-increasing-chain" if not increasing \
                    else "multiple-increasing-chains"
                violations.append((view.elements[x], view.elements[y], reason))
                continue
            if increasing[0] != _greedy_lex_min(out, up, x, y, order):
                violations.append(
                    (view.elements[x], view.elements[y], "increasing-not-lex-min")
                )
    return _report(violations)


def el_check_by_enumeration(view: PosetView, order: LabelOrder,
                            max_chains: int = 10_000) -> ELReport:
    """Oracle twin of ``el_check`` that lists every chain per interval."""
    if view.labels is None or any(l is None for l in view.labels.values()):
        return ELReport(applicable=False, is_el=False, violations=())
    if not is_graded_bruteforce(view).graded:
        raise ValueError("view is not graded")
    out, up = _labelled_out_edges(view), view.up

    def chains(x: int, y: int) -> list[tuple[Label, ...]]:
        found: list[tuple[Label, ...]] = []

        def walk(here: int, word: list[Label]):
            if here == y:
                found.append(tuple(word))
                if len(found) > max_chains:
                    raise RuntimeError("chain guard exceeded")
                return
            for label, z in out[here]:
                if z == y or (up[z] >> y) & 1:
                    word.append(label)
                    walk(z, word)
                    word.pop()

        walk(x, [])
        return found

    violations = []
    for x, up_x in enumerate(up):
        for y in bits(up_x):
            words = chains(x, y)
            keyed = [tuple(order.key(l) for l in w) for w in words]
            rising = [w for w, kw in zip(words, keyed)
                      if all(a <= b for a, b in zip(kw, kw[1:]))]
            if len(rising) != 1:
                reason = "no-increasing-chain" if not rising \
                    else "multiple-increasing-chains"
                violations.append((view.elements[x], view.elements[y], reason))
            elif tuple(order.key(l) for l in rising[0]) != min(keyed):
                violations.append(
                    (view.elements[x], view.elements[y], "increasing-not-lex-min")
                )
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
