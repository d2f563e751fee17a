"""
Saturated chains between involutions, with their label words.

Every interval of the involution order carries exactly one chain whose
label word is weakly increasing (it is also lex-minimal) and exactly one
whose label word is strictly decreasing (also the only weakly decreasing
one).  Both are built greedily from the covering moves (smallest,
respectively largest, feasible label at each step), with the
monotonicity asserted afterwards; ``all_saturated_chains`` enumerates
every chain of an interval and serves as the uniqueness oracle.  Its
guard is decided before any chain is built, by ``count_saturated_chains``
bounded at the guard: that count stops as soon as it passes the guard,
so a refused interval costs a few dozen elements, not 10,001 chains.
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


def _greedy_chain(p, q, pick: Callable, monotone: Callable) -> Chain:
    """Pick the min or max feasible label at each step, then assert the
    label word is ``monotone``."""
    if not bruhat_leq(p, q):
        raise ValueError(f"{p} is not <= {q} in Bruhat order")
    elements, labels = [p], []
    x = p
    while x != q:
        feasible = [(l, r) for l, r in covers(x) if bruhat_leq(r, q)]
        if not feasible:
            raise AssertionError(f"no cover of {x} stays below {q}")
        label, x = pick(feasible)
        elements.append(x)
        labels.append(label)
    if not monotone(labels):
        raise AssertionError(
            f"greedy chain from {p} to {q} fails {monotone.__name__}: {labels}"
        )
    return Chain(tuple(elements), tuple(labels))


def increasing_chain(p, q) -> Chain:
    """The unique chain from p to q with weakly increasing labels."""
    return _greedy_chain(p, q, min, is_weakly_increasing)


def decreasing_chain(p, q) -> Chain:
    """The unique chain from p to q with strictly decreasing labels."""
    return _greedy_chain(p, q, max, is_strictly_decreasing)


def _feasible_steps(p, q) -> Callable:
    """x -> x's upper covers still below q, as (label, cover) pairs in the
    order ``covers`` lists them, each computed once per query."""
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

    A memoized depth-first sum: each element's count is the sum of its
    feasible upper covers' counts.  Every element reached lies on a chain
    from p, so the partial sum of any open element bounds p's count from
    below, and the sum stops once one passes ``limit``.
    """
    if p == q:
        return 1
    counts = {q: 1}
    stack, partial = [(p, iter(steps(p)))], [0]
    while stack:
        x, moves = stack[-1]
        for _, r in moves:
            found = counts.get(r)
            if found is None:
                stack.append((r, iter(steps(r))))
                partial.append(0)
                break
            partial[-1] += found
            if partial[-1] > limit:
                return partial[-1]
        else:
            stack.pop()
            counts[x] = done = partial.pop()
            if not stack:
                return done
            partial[-1] += done
            if partial[-1] > limit:
                return partial[-1]


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

    Depth-first, taking each element's moves in the order ``covers``
    lists them.  Each element's feasible upper covers (those still below
    q) are computed once per call.  No count is taken first, so this is
    the route to a guard decision that is independent of
    ``count_saturated_chains``.
    """
    yield from _walk(p, q, _feasible_steps(p, q))


def all_saturated_chains(p, q, max_chains: int = DEFAULT_CHAIN_GUARD) -> list[Chain]:
    """Every saturated chain from p to q, erroring out past ``max_chains``.

    The guard is decided before any chain is built: the chain count,
    bounded at ``max_chains``, runs first, and the walk below the guard
    reads the feasible steps that the count found.
    """
    steps = _feasible_steps(p, q)
    if _count(p, q, steps, max_chains) > max_chains:
        raise ChainGuardExceeded(
            f"interval [{p}, {q}] has more than {max_chains} chains"
        )
    return list(_walk(p, q, steps))
