"""
Saturated chains between involutions, with their label words.

Every interval of the involution order carries exactly one chain whose
label word is weakly increasing (it is also lex-minimal) and exactly one
whose label word is strictly decreasing (also the only weakly decreasing
one).  Each query reads one step map (``_feasible_steps``: an element's
upper covers still below the top, in label order).  The greedy chains
take its first, respectively last, step at each element and assert the
monotonicity afterwards.  ``all_saturated_chains`` lists every chain and
serves as the uniqueness oracle.  Its guard is decided before any chain
is built by a bounded chain count, a memoized recursion over the same
steps that stops once a partial sum passes the guard.  The EL oracle
lists a view's chains with the same count and walk, so every chain
enumerator refuses in one way, ``ChainGuardExceeded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .bruhat import Label, bruhat_leq
from .moves import covers

DEFAULT_CHAIN_GUARD = 10_000


class ChainGuardExceeded(RuntimeError):
    """An interval produced more chains than the enumeration guard allows."""


@dataclass(frozen=True)
class Chain:
    """A saturated chain, bottom to top, with one label per step."""

    elements: tuple[tuple[int, ...], ...]
    labels: tuple[Label, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.elements) - 1:
            raise ValueError("label count must be element count minus one")

    def __len__(self) -> int:
        return len(self.labels)


def is_weakly_increasing(labels) -> bool:
    return all(a <= b for a, b in zip(labels, labels[1:]))


def is_strictly_decreasing(labels) -> bool:
    return all(a > b for a, b in zip(labels, labels[1:]))


def _greedy_chain(p, q, end: int, monotone: Callable) -> Chain:
    """Take the step at index ``end`` of the feasible steps at each
    element (0 for the least label, -1 for the greatest), then assert the
    label word is ``monotone``."""
    steps = _feasible_steps(p, q)
    elements, labels = [p], []
    x = p
    while x != q:
        found = steps(x)
        if not found:
            raise AssertionError(f"no cover of {x} stays below {q}")
        label, x = found[end]
        elements.append(x)
        labels.append(label)
    if not monotone(labels):
        raise AssertionError(
            f"greedy chain from {p} to {q} fails {monotone.__name__}: {labels}"
        )
    return Chain(tuple(elements), tuple(labels))


def increasing_chain(p, q) -> Chain:
    """The unique chain from p to q with weakly increasing labels."""
    return _greedy_chain(p, q, 0, is_weakly_increasing)


def decreasing_chain(p, q) -> Chain:
    """The unique chain from p to q with strictly decreasing labels."""
    return _greedy_chain(p, q, -1, is_strictly_decreasing)


def _feasible_steps(p, q) -> Callable:
    """x -> x's upper covers still below q, as (label, cover) pairs in the
    order ``covers`` lists them (by label), each computed once per query."""
    if not bruhat_leq(p, q):
        raise ValueError(f"{p} is not <= {q} in Bruhat order")
    feasible = {}

    def steps(x):
        found = feasible.get(x)
        if found is None:
            found = feasible[x] = [(l, r) for l, r in covers(x)
                                   if bruhat_leq(r, q)]
        return found

    return steps


def _count(p, q, steps, limit) -> int:
    """The number of saturated chains from p to q, or a number past
    ``limit`` as soon as one is seen.

    A memoized recursion, at most the rank difference deep: each
    element's count is the sum of its steps' counts.  Every element
    reached lies on a chain from p, so a partial sum bounds p's count
    from below, and it is returned, unmemoized, once it passes ``limit``.
    """
    counts = {q: 1}

    def count(x):
        total = counts.get(x)
        if total is None:
            total = 0
            for _, r in steps(x):
                total += count(r)
                if total > limit:
                    return total
            counts[x] = total
        return total

    return count(p)


def count_saturated_chains(p, q, max_chains: int | None = None) -> int:
    """The number of saturated chains from p to q.  Given ``max_chains``,
    the count may stop at any number past it once it is sure to exceed it."""
    limit = math.inf if max_chains is None else max_chains
    return _count(p, q, _feasible_steps(p, q), limit)


def _walk(p, q, steps) -> Iterator[Chain]:
    """Depth-first over ``steps``, one iterator over them per open level."""
    if p == q:
        yield Chain((p,), ())
        return
    elements, labels, stack = [p], [], [iter(steps(p))]
    while stack:
        for label, r in stack[-1]:
            if r == q:
                yield Chain((*elements, q), (*labels, label))
                continue
            elements.append(r)
            labels.append(label)
            stack.append(iter(steps(r)))
            break
        else:
            stack.pop()
            elements.pop()
            if labels:
                labels.pop()


def iter_saturated_chains(p, q) -> Iterator[Chain]:
    """Yield every saturated chain from p to q, unguarded and lazily.

    Depth-first, taking each element's feasible steps in label order,
    each computed once per call.  No count is taken first, so this is the
    route to a guard decision that is independent of
    ``count_saturated_chains``.
    """
    yield from _walk(p, q, _feasible_steps(p, q))


def _guarded_chains(p, q, steps, max_chains: int) -> list[Chain]:
    """Every chain from p to q over ``steps`` (x -> (label, next) pairs,
    each next still below q), or ChainGuardExceeded past ``max_chains``,
    decided by the bounded count before the walk reads the same steps."""
    if _count(p, q, steps, max_chains) > max_chains:
        raise ChainGuardExceeded(
            f"interval [{p}, {q}] has more than {max_chains} chains"
        )
    return list(_walk(p, q, steps))


def all_saturated_chains(p, q, max_chains: int = DEFAULT_CHAIN_GUARD) -> list[Chain]:
    """Every saturated chain from p to q, erroring out past ``max_chains``."""
    return _guarded_chains(p, q, _feasible_steps(p, q), max_chains)
