from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from invbruhat.bruhat import (
    PosetView,
    UniverseIndex,
    bits,
    bruhat_leq,
    bruhat_less,
    dot_table,
    poset_view,
)
from invbruhat.perms import (
    MAX_N,
    enumerate_involutions,
    format_perm,
    identity,
    num_fixed_points,
    parse_perm,
    reversal,
    statistics,
)


def words(*texts):
    return tuple(parse_perm(t) for t in texts)


def cover_words(view):
    """The covers of ``view`` as (lower, upper) element pairs."""
    return tuple((view.elements[i], view.elements[j]) for i, j in view.covers)


def transposition_closure_leq(n):
    """Oracle: reflexive-transitive closure of the length-increasing
    transposition covers of S_n, independent of dot tables."""
    elements = [p for p in permutations(range(1, n + 1))]
    up_edges = {p: [] for p in elements}
    for p in elements:
        inv_p = statistics(p)[0]
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] < p[j]:
                    q = list(p)
                    q[i], q[j] = q[j], q[i]
                    q = tuple(q)
                    if statistics(q)[0] == inv_p + 1:
                        up_edges[p].append(q)
    reachable = {}
    for p in elements:
        seen = {p}
        stack = [p]
        while stack:
            for q in up_edges[stack.pop()]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        reachable[p] = seen
    return reachable


def entry(p, k, l):
    """Entry (k, l), 1-based, of the packed dot table of p: the 5 bits at
    5 * ((k-1) n + l - 1), guard bit included."""
    return dot_table(p) >> 5 * ((k - 1) * len(p) + l - 1) & 0b11111


def grid(p):
    """Dot table of p straight from the definition |{i <= k : w(i) >= l}|,
    indexed [k-1][l-1]."""
    n = len(p)
    return [[sum(1 for i in range(k) if p[i] >= l) for l in range(1, n + 1)]
            for k in range(1, n + 1)]


def test_dot_table_examples():
    assert entry((1, 2, 3, 4), 2, 2) == 1
    assert entry((4, 2, 6, 1, 5, 3), 1, 4) == 1
    for p in [(1, 2, 3), (3, 1, 2), (4, 2, 6, 1, 5, 3)]:
        assert entry(p, len(p), 1) == len(p)


def test_dot_table_monotone_in_both_indices():
    for p in permutations(range(1, 6)):
        n = len(p)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k < n:
                    assert entry(p, k, l) <= entry(p, k + 1, l)
                if l < n:
                    assert entry(p, k, l) >= entry(p, k, l + 1)


def test_bruhat_leq_equals_entrywise_comparison_on_s5():
    elements = list(permutations(range(1, 6)))
    grids = {p: grid(p) for p in elements}
    for p in elements:
        for q in elements:
            entrywise = all(a <= b for row_p, row_q in zip(grids[p], grids[q])
                            for a, b in zip(row_p, row_q))
            assert bruhat_leq(p, q) == entrywise, (p, q)


def test_packed_table_holds_the_largest_size():
    bottom, top = identity(MAX_N), reversal(MAX_N)
    assert entry(top, MAX_N, 1) == MAX_N == 12
    assert bruhat_leq(bottom, top)
    assert not bruhat_leq(top, bottom)


def test_bruhat_leq_examples():
    p, q = words("124365", "426153")
    assert bruhat_leq(p, q)
    assert bruhat_leq(p, p)
    assert bruhat_leq(*words("2143", "3412"))
    assert not bruhat_leq(*words("2143", "1234"))


def test_bruhat_leq_size_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_order_axioms_exhaustive_small():
    for n in range(1, 5):
        elements = list(permutations(range(1, n + 1)))
        for p in elements:
            assert bruhat_leq(p, p)
            for q in elements:
                if bruhat_leq(p, q) and bruhat_leq(q, p):
                    assert p == q
        for p in elements:
            for q in elements:
                if not bruhat_leq(p, q):
                    continue
                for r in elements:
                    if bruhat_leq(q, r):
                        assert bruhat_leq(p, r)


def test_transitivity_via_upsets_n5():
    idx = UniverseIndex(permutations(range(1, 6)))
    for i in range(len(idx.elements)):
        for j in bits(idx.up[i]):
            # everything above j must be above i
            assert idx.up[j] & ~idx.up[i] == 0


@settings(max_examples=200)
@given(st.tuples(*[st.permutations(list(range(1, 9))) for _ in range(3)]))
def test_transitivity_random_triples_n8(triple):
    p, q, r = (tuple(w) for w in triple)
    if bruhat_leq(p, q) and bruhat_leq(q, r):
        assert bruhat_leq(p, r)


def test_matches_transposition_cover_oracle():
    for n in range(1, 6):
        reachable = transposition_closure_leq(n)
        for p, above in reachable.items():
            for q in permutations(range(1, n + 1)):
                assert bruhat_leq(p, q) == (q in above), (p, q)


def test_identity_unique_min_reversal_unique_max():
    for n in range(1, 7):
        bottom, top = identity(n), reversal(n)
        for p in permutations(range(1, n + 1)):
            assert bruhat_leq(bottom, p)
            assert bruhat_leq(p, top)
            if p != bottom:
                assert not bruhat_leq(p, bottom)
            if p != top:
                assert not bruhat_leq(top, p)


def test_poset_view_singleton_and_chain():
    single = poset_view([(1, 2, 3)])
    assert cover_words(single) == ()
    F40 = [p for p in enumerate_involutions(4) if num_fixed_points(p) == 0]
    view = poset_view(F40)
    assert [format_perm(p) for p in view.elements] == ["2143", "3412", "4321"]
    assert cover_words(view) == (words("2143", "3412"), words("3412", "4321"))


def test_poset_view_cover_can_skip_ambient_rank():
    # in the class with two fixed points, 124365 -> 216453 is a cover
    # even though the ambient order has an element between them
    F62 = [p for p in enumerate_involutions(6) if num_fixed_points(p) == 2]
    view = poset_view(F62)
    assert words("124365", "216453") in set(cover_words(view))
    low, high = words("124365", "216453")
    between = [z for z in enumerate_involutions(6)
               if bruhat_less(low, z) and bruhat_less(z, high)]
    assert between == list(words("126453", "214365"))
    assert all(num_fixed_points(z) != 2 for z in between)


def test_poset_view_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        poset_view([(1, 2), (1, 2, 3)])


@pytest.mark.parametrize("covers", [
    (("123", "213"), ("213", "132")),  # 213 -> 132 goes down in position
    (("123", "132"), ("132", "123")),  # a 2-cycle
])
def test_view_whose_covers_do_not_go_up_in_position_is_rejected(covers):
    elements = words("123", "132", "213")
    covers = tuple(tuple(elements.index(p) for p in words(*pair))
                   for pair in covers)
    with pytest.raises(ValueError):
        PosetView(elements=elements, covers=covers)


@pytest.mark.parametrize("covers, labels", [
    (((0, 2), (0, 1)), None),  # not sorted
    (((0, 1), (0, 1)), None),  # repeated
    (((0, 1), (0, 2)), ((1, 2),)),  # one label for two covers
])
def test_view_with_unsorted_covers_or_misaligned_labels_is_rejected(
        covers, labels):
    with pytest.raises(ValueError):
        PosetView(elements=words("123", "132", "213"), covers=covers,
                  labels=labels)


@pytest.mark.parametrize("covers", [
    ((0, 1), (1, 3)),  # j == len(elements)
    ((0, 3), (1, 2)),  # j == len(elements), on a cover before the last
    ((-1, 1), (0, 2)),  # a negative i
])
def test_view_with_a_cover_out_of_range_is_rejected(covers):
    with pytest.raises(ValueError):
        PosetView(elements=words("123", "132", "213"), covers=covers)


def test_down_sets_are_closed_and_agree_with_the_dot_criterion():
    idx = UniverseIndex(enumerate_involutions(6))
    view = poset_view(idx.elements)
    assert view.down == tuple(d | 1 << i for i, d in enumerate(idx.down))


@pytest.mark.parametrize("base_words", [
    # F_6^{2}: six minimal elements, and covers that skip an ambient rank
    [p for p in enumerate_involutions(6) if num_fixed_points(p) == 2],
    words("2143"),  # one element
])
def test_adjoin_and_drop_bottom_equal_the_dot_criterion_view(base_words):
    base = poset_view(base_words)
    bottom = identity(len(base.elements[0]))
    lifted = base.adjoin_bottom(bottom)
    direct = poset_view([bottom, *base_words])
    assert (lifted.elements, lifted.covers) == (direct.elements, direct.covers)
    assert lifted.labels is None
    minimal = set(range(len(base.elements))) - {j for _, j in base.covers}
    assert {j - 1 for i, j in lifted.covers if i == 0} == minimal
    dropped = lifted.drop_bottom()
    assert (dropped.elements, dropped.covers) == (base.elements, base.covers)


def test_drop_bottom_of_a_labelled_view_is_its_unlabelled_rest():
    view = PosetView(elements=words("123", "132", "213", "321"),
                     covers=((0, 1), (0, 2), (1, 3), (2, 3)),
                     labels=((2, 3), (1, 2), (1, 3), (1, 3)))
    dropped = view.drop_bottom()
    assert dropped.elements == words("132", "213", "321")
    assert dropped.covers == ((0, 2), (1, 2))
    assert dropped.labels is None
    assert dropped.drop_bottom().covers == ((0, 1),)
