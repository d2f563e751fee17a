"""
Conjugation-invariant involution classes selected by fixed-point count.

For a size n and a set A of fixed-point counts (all of n's parity), the
class holds every involution of S_n whose number of fixed points lies
in A, ordered by the induced Bruhat order.  The module provides:

* gradedness, twice over: a brute-force check on the covering graph and
  a closed-form rule on A (graded iff A - {n} is empty or a step-2 run
  {a1, a1+2, ..., a2} with a1 in {0, 1}, or a2 = n - 2, or a2 - a1 >= 2);
* the rank function (inv + exc - n + a~)/2 (+1 when n is in A), where
  a~ = max(A - {n}), valid exactly in the graded cases;
* the unique maximum and the minimal elements of every class;
* two witness constructions producing bottom-to-top chains of unequal
  length in the non-graded cases: one for an isolated count (i in A,
  i-2 and i+2 not in A) and one for a gapped count set (i not in A,
  i-2 and i+2m in A).  Witness chains are re-verified edge by edge
  against the induced order rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress

from .bruhat import PosetView, bruhat_less
from .moves import ct, scan_covers
from .perms import (
    MAX_N,
    Perm,
    enumerate_involutions,
    identity,
    is_involution,
    num_fixed_points,
    statistics,
)


@dataclass(frozen=True)
class FixedPointSpec:
    """A class of involutions: size n plus allowed fixed-point counts."""

    n: int
    counts: frozenset[int]

    @property
    def a_min(self) -> int:
        return min(self.counts)

    @property
    def a_tilde(self) -> int | None:
        """max(A - {n}), the parameter of the rank formula; None for A = {n}."""
        rest = self.counts - {self.n}
        return max(rest) if rest else None

    def run_params(self) -> tuple[int, int] | None:
        """(a1, a2) when A - {n} is the full step-2 run {a1, a1+2, ..., a2}."""
        rest = sorted(self.counts - {self.n})
        if not rest:
            return None
        if any(b - a != 2 for a, b in zip(rest, rest[1:])):
            return None
        return rest[0], rest[-1]

    def describe(self) -> str:
        return f"F_{self.n}^{{{','.join(str(a) for a in sorted(self.counts))}}}"


def make_spec(n: int, counts) -> FixedPointSpec:
    """Validate and build a class description.

    The size must lie in 1..MAX_N; it is checked before the counts are
    read.  Counts must be nonempty, lie in 0..n, and share n's parity (an
    involution of S_n always has n-congruent fixed-point count mod 2).
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"size {n} outside 1..{MAX_N}")
    counts = frozenset(counts)
    if not counts:
        raise ValueError("empty fixed-point count set")
    for a in counts:
        if not 0 <= a <= n:
            raise ValueError(f"count {a} outside 0..{n}")
        if a % 2 != n % 2:
            raise ValueError(f"count {a} has the wrong parity for n = {n}")
    return FixedPointSpec(n=n, counts=counts)


def all_specs(n: int) -> list[FixedPointSpec]:
    """Every valid nonempty count set for size n, in a fixed order."""
    values = list(range(n % 2, n + 1, 2))
    out = []
    for mask in range(1, 1 << len(values)):
        counts = frozenset(v for k, v in enumerate(values) if mask >> k & 1)
        out.append(FixedPointSpec(n=n, counts=counts))
    out.sort(key=lambda s: sorted(s.counts))
    return out


def in_class(p: Perm, spec: FixedPointSpec) -> bool:
    return (
        len(p) == spec.n
        and is_involution(p)
        and num_fixed_points(p) in spec.counts
    )


# As many sizes as enumerate_involutions keeps.
@lru_cache(maxsize=8)
def _strata(n: int) -> tuple[tuple[int, ...], ...]:
    """The involutions of size n by fixed-point count: entry a holds the
    ascending positions in ``enumerate_involutions(n)`` of those with a
    fixed points, which are their positions in the whole order's view."""
    strata: list[list[int]] = [[] for _ in range(n + 1)]
    for i, p in enumerate(enumerate_involutions(n)):
        strata[num_fixed_points(p)].append(i)
    return tuple(map(tuple, strata))


def _positions(spec: FixedPointSpec) -> list[int]:
    """The ascending positions of the class elements among all
    involutions of its size: its strata merged."""
    strata = _strata(spec.n)
    return sorted(chain.from_iterable(strata[a] for a in spec.counts))


def enumerate_class(spec: FixedPointSpec) -> tuple[Perm, ...]:
    """The class elements in lexicographic word order."""
    return tuple(map(enumerate_involutions(spec.n).__getitem__,
                     _positions(spec)))


# Largest size whose whole involution order is built: at n = 11 its 35,696
# elements and 291,946 labelled covers take about 1.0 s at a 71 MB peak and
# its down-sets 80 MB of bits.  n = 12 stays out: the down-sets of its
# 140,152 involutions alone would take about 1.2 GB.
MAX_VIEW_N = 11


@lru_cache(maxsize=8)
def involution_view(n: int) -> PosetView:
    """The whole involution order of size n, which every class view is
    read from: its covers are the covering moves, each with its rise
    label."""
    if n > MAX_VIEW_N:
        raise ValueError(f"size {n} above the view cap {MAX_VIEW_N}")
    elements = enumerate_involutions(n)
    index = {p: i for i, p in enumerate(elements)}
    pairs, labels = [], []
    for i, p in enumerate(elements):
        for j, label in sorted([(index[q], label)
                                 for label, q in scan_covers(p)]):
            pairs.append((i, j))
            labels.append(label)
    return PosetView(elements=elements, covers=tuple(pairs),
                     labels=tuple(labels))


def class_view(spec: FixedPointSpec, base: PosetView | None = None
               ) -> PosetView:
    """Covering graph of the induced order on the class, A its count set.

    The full count set is the whole order, labels included; {n} is the
    identity alone, no order built.  Others come unlabelled, by one of:

    * the full set minus n is the whole order with its bottom dropped;
    * A with n and some other count is the class of A - {n} with the
      identity adjoined as its bottom: the identity is the least
      involution and the first word, so it is covered by exactly the
      minimal elements of A - {n} and no other cover changes.  ``base``
      is that class's view when the caller holds it, else it is built;
    * any other class is the whole order restricted to its positions,
      the one route that peels.
    """
    n = spec.n
    full = frozenset(range(n % 2, n + 1, 2))
    if spec.counts == full:
        return involution_view(n)
    if spec.counts == {n}:
        return PosetView(elements=(identity(n),), covers=(), labels=())
    whole = involution_view(n)
    if spec.counts == full - {n}:
        return whole.drop_bottom()
    rest = spec.counts - {n}
    if rest and rest != spec.counts:
        if base is None:
            base = class_view(FixedPointSpec(n=n, counts=rest))
        return base.adjoin_bottom(identity(n))
    return whole.restrict(_positions(spec))


@dataclass(frozen=True)
class GradedReport:
    graded: bool
    ranks: dict[Perm, int] | None


def is_graded_bruteforce(view: PosetView) -> GradedReport:
    """Check that all maximal chains of ``view`` have equal length.

    Works on the covering graph: the poset is graded iff, at every
    element, all lower covers sit at one height, and all maximal
    elements sit at one height.  One pass over the covers in their
    sorted order checks both, since every cover into i comes before
    every cover out of i: the first lower cover read fixes an element's
    height, and a later one at another height ends the pass.  That is
    linear in the number of covering edges, so arbitrarily chain-rich
    posets stay cheap.  When graded, returns the unique rank map sending
    minimal elements to 0.
    """
    height = [0] * len(view.elements)  # 0 until a lower cover is read
    maximal = bytearray(b"\x01") * len(height)
    for i, j in view.covers:
        maximal[i] = 0
        h, seen = height[i] + 1, height[j]
        if not seen:
            height[j] = h
        elif seen != h:
            return GradedReport(graded=False, ranks=None)
    if len(set(compress(height, maximal))) > 1:
        return GradedReport(graded=False, ranks=None)
    return GradedReport(graded=True, ranks=dict(zip(view.elements, height)))


def is_graded_rule(spec: FixedPointSpec) -> bool:
    """Closed-form gradedness rule on the count set alone."""
    run = spec.run_params()
    if spec.counts == {spec.n}:
        return True
    if run is None:
        return False
    a1, a2 = run
    return a1 in (0, 1) or a2 == spec.n - 2 or a2 - a1 >= 2


def rank_in_involutions(p: Perm) -> int:
    """Rank of an involution in the full involution order: (inv + exc)/2."""
    if not is_involution(p):
        raise ValueError(f"not an involution: {p}")
    inv, exc, _ = statistics(p)
    assert (inv + exc) % 2 == 0
    return (inv + exc) // 2


def rank_value(p: Perm, spec: FixedPointSpec) -> int:
    """Class rank of p: (inv + exc - n + a~)/2, plus 1 when n is in A.

    Defined only for graded classes; refuses service otherwise since no
    canonical rank exists.  When the identity belongs to the class it is
    the unique minimum and sits at rank 0, so {identity} has rank 0; the
    shifted formula covers every other element (evaluating it at the
    identity would go negative once a~ < n - 2).
    """
    if not in_class(p, spec):
        raise ValueError(f"{p} is not in {spec.describe()}")
    if not is_graded_rule(spec):
        raise ValueError(f"{spec.describe()} is not graded; no rank function")
    if spec.n in spec.counts and num_fixed_points(p) == spec.n:
        return 0
    inv, exc, _ = statistics(p)
    numerator = inv + exc - spec.n + spec.a_tilde
    assert numerator % 2 == 0
    return numerator // 2 + (1 if spec.n in spec.counts else 0)


def top_element(spec: FixedPointSpec) -> Perm:
    """The unique Bruhat maximum of the class.

    With a = min A, alpha = (n-a)/2 and beta = (n+a)/2, the word is
    n (n-1) ... (beta+1) | (alpha+1) ... beta | alpha ... 1: the longest
    word on the outer letters around a middle block of fixed points.
    """
    n, a = spec.n, spec.a_min
    alpha, beta = (n - a) // 2, (n + a) // 2
    word = list(range(n, beta, -1)) + list(range(alpha + 1, beta + 1)) \
        + list(range(alpha, 0, -1))
    return tuple(word)


def minimal_elements(spec: FixedPointSpec) -> tuple[Perm, ...]:
    """All minimal elements of the induced order on the class, in word
    order, from their closed form with no order built: the involutions
    with a = max A fixed points whose 2-cycles are all adjacent
    transpositions (i i+1), C((n+a)/2, (n-a)/2) of them.  This is an
    observed fact, checked against the class views at n <= 8."""
    n, a = spec.n, max(spec.counts)
    blocks = (n + a) // 2  # the fixed points and the pairs, left to right
    words = []
    for pairs in combinations(range(blocks), (n - a) // 2):
        word: list[int] = []
        for b in range(blocks):
            v = len(word) + 1
            word += (v + 1, v) if b in pairs else (v,)
        words.append(tuple(word))
    return tuple(sorted(words))


@dataclass(frozen=True)
class WitnessReport:
    """Two verified bottom-to-top chains of different lengths in a class."""

    spec: FixedPointSpec
    bottom: Perm
    top: Perm
    long_chain: tuple[Perm, ...]
    short_chain: tuple[Perm, ...]


def _pad(core: Perm | list[int], n: int, i: int) -> Perm:
    """Extend a core word: letters k+1..k+i-2 fixed, the rest swapped in
    adjacent pairs, so the total fixed-point count grows by i - 2."""
    k = len(core)
    word = list(core) + list(range(k + 1, k + i - 1))
    v = k + i - 1
    while v < n:
        word.extend((v + 1, v))
        v += 2
    if len(word) != n:
        raise ValueError(f"padding of core size {k} does not reach n = {n}")
    return tuple(word)


def _verify_class_chains(chains, elements) -> None:
    """Assert chains are saturated in the induced order on ``elements``."""
    pool = set(elements)
    for x in chain.from_iterable(chains):
        if x not in pool:
            raise AssertionError(f"chain element {x} is outside the class")
    steps = [step for c in chains for step in zip(c, c[1:])]
    for x, y in steps:
        if not bruhat_less(x, y):
            raise AssertionError(f"chain step {x} -> {y} is not an order step")
    for z in elements:  # each dot table read once, not once per step
        for x, y in steps:
            if z != x and z != y and bruhat_less(x, z) and bruhat_less(z, y):
                raise AssertionError(
                    f"chain step {x} -> {y} is not a cover: {z} lies between"
                )


def _padded_witness(spec: FixedPointSpec, i: int, long_core,
                     short_core) -> WitnessReport:
    """Pad two core chains with the same ends to size n and verify both
    in the class."""
    long_chain = tuple(_pad(w, spec.n, i) for w in long_core)
    short_chain = tuple(_pad(w, spec.n, i) for w in short_core)
    _verify_class_chains((long_chain, short_chain), enumerate_class(spec))
    return WitnessReport(spec=spec, bottom=long_chain[0], top=long_chain[-1],
                         long_chain=long_chain, short_chain=short_chain)


def isolated_count_witness(n: int, i: int) -> WitnessReport:
    """Unequal-length chains in the class with counts {i}, for an
    isolated count: 2 <= i <= n - 4 and i of n's parity.

    The size-6 core interval carries a length-3 chain and a length-2
    chain; padding with fixed letters and swapped pairs lifts it to any
    valid (n, i).
    """
    if not 2 <= i <= n - 4:
        raise ValueError(f"need 2 <= i <= n - 4, got i = {i}, n = {n}")
    if i % 2 != n % 2:
        raise ValueError(f"count {i} has the wrong parity for n = {n}")
    long_core = [[1, 2, 4, 3, 6, 5], [1, 4, 3, 2, 6, 5],
                 [4, 2, 3, 1, 6, 5], [4, 2, 6, 1, 5, 3]]
    short_core = [[1, 2, 4, 3, 6, 5], [2, 1, 6, 4, 5, 3], [4, 2, 6, 1, 5, 3]]
    return _padded_witness(make_spec(n, {i}), i, long_core, short_core)


def gapped_counts_witness(n: int, i: int, m: int) -> WitnessReport:
    """Unequal-length chains in the class with counts {i-2, i+2m}, for a
    gapped count set: i is skipped while i - 2 and i + 2m are allowed.

    On the core letters 1..k, k = 2m + 4, the long chain applies k - 2
    moves through fixed-point-preserving rises; the short chain jumps
    via the fixed-point-free pairing of adjacent letters.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if i < 2:
        raise ValueError("need i >= 2")
    if i % 2 != n % 2:
        raise ValueError(f"count {i} has the wrong parity for n = {n}")
    k = 2 * m + 4
    if n < k + i - 2:
        raise ValueError(f"need n >= 2m + i + 2 = {k + i - 2}, got n = {n}")
    spec = make_spec(n, {i - 2, i + 2 * m})  # checks the size before the work

    sigma = list(range(1, k - 1)) + [k, k - 1]
    tau = [k] + list(range(2, k)) + [1]
    long_core = [tuple(sigma)]
    for a in range(k - 2, 0, -1):
        long_core.append(ct(long_core[-1], (a, a + 1)))
    if long_core[-1] != tuple(tau):
        raise AssertionError("long-chain moves do not reach the interval top")
    pi = tuple(sigma)
    for a in range(1, k - 2, 2):
        pi = ct(pi, (a, a + 1))  # pair the fixed letters adjacently
    short_core = [tuple(sigma), pi, tuple(tau)]
    return _padded_witness(spec, i, long_core, short_core)
