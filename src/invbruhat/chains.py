"""
Saturated chains between involutions, with their label words.

Every interval of the involution order carries exactly one chain whose
label word is weakly increasing (it is also lex-minimal) and exactly one
whose label word is strictly decreasing (also the only weakly decreasing
one).  Both are built greedily from the covering moves (smallest,
respectively largest, feasible label at each step), with the
monotonicity asserted afterwards; ``all_saturated_chains`` enumerates
every chain of an interval and serves as the uniqueness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .bruhat import bruhat_leq
from .moves import Label, covers, ct

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

    def verify(self) -> None:
        """Check every step really is the move named by its label."""
        for x, y, label in zip(self.elements, self.elements[1:], self.labels):
            try:
                image = ct(x, label)
            except ValueError as exc:
                raise AssertionError(str(exc)) from None
            if image != y:
                raise AssertionError(f"step {x} -> {y} is not the move {label}")


def di(p, q) -> int:
    """Least position (1-based) where the one-line words differ."""
    if p == q:
        raise ValueError("permutations are equal")
    return next(i for i, (a, b) in enumerate(zip(p, q), start=1) if a != b)


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


def iter_saturated_chains(p, q) -> Iterator[Chain]:
    """Yield every saturated chain from p to q, unguarded."""
    if not bruhat_leq(p, q):
        raise ValueError(f"{p} is not <= {q} in Bruhat order")

    def walk(x, elements, labels):
        if x == q:
            yield Chain(tuple(elements), tuple(labels))
            return
        for label, r in covers(x):
            if bruhat_leq(r, q):
                elements.append(r)
                labels.append(label)
                yield from walk(r, elements, labels)
                elements.pop()
                labels.pop()

    yield from walk(p, [p], [])


def all_saturated_chains(p, q, max_chains: int = DEFAULT_CHAIN_GUARD) -> list[Chain]:
    """Every saturated chain from p to q, erroring out past ``max_chains``."""
    out = []
    for chain in iter_saturated_chains(p, q):
        out.append(chain)
        if len(out) > max_chains:
            raise ChainGuardExceeded(
                f"interval [{p}, {q}] has more than {max_chains} chains"
            )
    return out
