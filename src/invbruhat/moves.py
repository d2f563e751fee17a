"""
Rise classification and covering moves on involutions.

For an involution w, a pair i < j with w(i) < w(j) is a rise; it is free
when no k strictly between i and j has w(k) strictly between w(i) and
w(j).  A free rise is suitable when the pattern of (i, j), each point
being a fixed point (f), exceedance (e), or deficiency (d), is one of

    ff    fe    ef    ee non-crossing    ee crossing    ed
    T1    T2    T3    T4                 T5             T6

where an ee rise is crossing iff w(i) < j.  Free rises with a deficiency
first, or pattern fd, fit none of the six shapes and yield no move.

Each suitable rise defines a covering move ``ct`` producing the upper
cover of w obtained by composing w with a short cycle (cycle applied
first, so ct(w)(x) = w(c(x))):

    T1: c = (i j)            T2: c = (i j w(j))     T3: c = (i j w(i))
    T4: c = (i j)(w(i) w(j)) T5: c = (i j w(j) w(i)) T6: c = (i j)(w(i) w(j))

Each move is written from this table directly: only the 2 to 4 positions
in its cycles change.  ``covers`` finds the free rises in one scan per i
with w(i) >= i: (i, j) is one iff w(i) < w(j) < ceiling, the least w(k)
above w(i) with i < k < j, so each free rise, suitable or not, lowers the
ceiling to w(j).  The whole involution order keeps the labels ``covers``
returns; ``cover_map`` keys them by upper cover for the label pass of a
proper class's view.  The moves give exactly the Bruhat covers of
involutions, which the tests check against an order-theoretic oracle.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .perms import Perm, is_involution

Label = tuple[int, int]


class RiseClass(Enum):
    NOT_A_RISE = "not-a-rise"
    NON_FREE = "non-free-rise"
    UNSUITABLE = "free-unsuitable-rise"
    TYPE1_FF = "type1-ff"
    TYPE2_FE = "type2-fe"
    TYPE3_EF = "type3-ef"
    TYPE4_EE_NONCROSSING = "type4-ee-noncrossing"
    TYPE5_EE_CROSSING = "type5-ee-crossing"
    TYPE6_ED = "type6-ed"


SUITABLE = frozenset({
    RiseClass.TYPE1_FF,
    RiseClass.TYPE2_FE,
    RiseClass.TYPE3_EF,
    RiseClass.TYPE4_EE_NONCROSSING,
    RiseClass.TYPE5_EE_CROSSING,
    RiseClass.TYPE6_ED,
})


def classify_rise(p: Perm, label: Label) -> RiseClass:
    """Classify the pair ``label`` = (i, j), i < j, for the involution p."""
    if not is_involution(p):
        raise ValueError(f"not an involution: {p}")
    i, j = label
    if not (1 <= i < j <= len(p)):
        raise ValueError(f"bad index pair {label} for size {len(p)}")
    vi, vj = p[i - 1], p[j - 1]
    if vi >= vj:
        return RiseClass.NOT_A_RISE
    if any(vi < p[k - 1] < vj for k in range(i + 1, j)):
        return RiseClass.NON_FREE
    first = "f" if vi == i else ("e" if vi > i else "d")
    second = "f" if vj == j else ("e" if vj > j else "d")
    pattern = first + second
    if pattern == "ee":
        return RiseClass.TYPE5_EE_CROSSING if vi < j else RiseClass.TYPE4_EE_NONCROSSING
    return {"ff": RiseClass.TYPE1_FF, "fe": RiseClass.TYPE2_FE,
            "ef": RiseClass.TYPE3_EF, "ed": RiseClass.TYPE6_ED,
            }.get(pattern, RiseClass.UNSUITABLE)


def _move(p: Perm, i: int, j: int) -> Perm | None:
    """The upper cover of p at the free rise (i, j): the composition with
    the cycles its pattern picks from the table above, written directly
    at the 2 to 4 positions it changes; None for a deficiency first or fd."""
    vi, vj = p[i - 1], p[j - 1]
    if vi < i or (vi == i and vj < j):
        return None
    w = list(p)
    if vi == i:
        if vj == j:
            w[i - 1], w[j - 1] = j, i  # T1
        else:
            w[i - 1], w[j - 1], w[vj - 1] = vj, j, i  # T2
    elif vj == j:
        w[i - 1], w[j - 1], w[vi - 1] = j, i, vi  # T3
    elif vi < j < vj:
        w[i - 1], w[j - 1], w[vj - 1], w[vi - 1] = vj, j, i, vi  # T5
    else:
        w[i - 1], w[j - 1], w[vi - 1], w[vj - 1] = vj, vi, j, i  # T4, T6
    return tuple(w)


def ct(p: Perm, label: Label) -> Perm:
    """Apply the covering move at a suitable rise; the result covers p."""
    kind = classify_rise(p, label)
    if kind not in SUITABLE:
        raise ValueError(f"{label} is not a suitable rise of {p}: {kind.value}")
    return _move(p, *label)


# 1 << 14 entries hold all 9,496 involutions of size 10.
@lru_cache(maxsize=1 << 14)
def covers(p: Perm) -> tuple[tuple[Label, Perm], ...]:
    """All covering moves of p, sorted by label: the upper covers of p in
    the Bruhat order on involutions.  One scan per i with p(i) >= i finds
    the free rises (i, j) as p(i) < p(j) < ceiling, the least p(k) above
    p(i) for i < k < j."""
    if not is_involution(p):
        raise ValueError(f"not an involution: {p}")
    out, n = [], len(p)
    for i, vi in enumerate(p, 1):
        if vi < i:  # a deficiency first yields no move
            continue
        ceiling = n + 1
        for j in range(i + 1, n + 1):
            vj = p[j - 1]
            if vi < vj < ceiling:
                ceiling = vj
                q = _move(p, i, j)
                if q is not None:
                    out.append(((i, j), q))
    return tuple(out)


def cover_map(p: Perm) -> dict[Perm, Label]:
    """Upper cover -> label.  Each cover arises from exactly one label."""
    out: dict[Perm, Label] = {}
    for label, q in covers(p):
        if q in out:
            raise AssertionError(f"two labels produce the same cover of {p}")
        out[q] = label
    return out
