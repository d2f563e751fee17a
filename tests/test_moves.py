import pytest
from hypothesis import given, settings, strategies as st

from invbruhat.bruhat import poset_view
from invbruhat.moves import (
    RiseClass,
    SUITABLE,
    classify_rise,
    cover_map,
    covers,
    ct,
)
from invbruhat.perms import (
    enumerate_involutions,
    is_involution,
    num_fixed_points,
    parse_perm,
    reversal,
    statistics,
)

# fixed-point delta of each move type
FIXED_DELTA = {
    RiseClass.TYPE1_FF: -2,
    RiseClass.TYPE2_FE: 0,
    RiseClass.TYPE3_EF: 0,
    RiseClass.TYPE4_EE_NONCROSSING: 0,
    RiseClass.TYPE5_EE_CROSSING: +2,
    RiseClass.TYPE6_ED: 0,
}


def rank(p):
    inv, exc, _ = statistics(p)
    return (inv + exc) // 2


@pytest.mark.parametrize("word,label,expected", [
    ("1234", (1, 2), RiseClass.TYPE1_FF),
    ("124365", (3, 5), RiseClass.TYPE5_EE_CROSSING),
    ("3412", (1, 2), RiseClass.TYPE4_EE_NONCROSSING),
    ("124365", (2, 3), RiseClass.TYPE2_FE),
    ("216453", (1, 4), RiseClass.TYPE3_EF),
    ("2143", (1, 4), RiseClass.TYPE6_ED),
    ("2143", (1, 2), RiseClass.NOT_A_RISE),
    ("1234", (1, 3), RiseClass.NON_FREE),
    ("132", (1, 3), RiseClass.UNSUITABLE),
])
def test_classify_rise_examples(word, label, expected):
    assert classify_rise(parse_perm(word), label) == expected


def test_classify_rise_rejects_non_involution():
    with pytest.raises(ValueError):
        classify_rise((2, 3, 1), (1, 2))


def test_classify_rise_rejects_bad_label():
    with pytest.raises(ValueError):
        classify_rise((1, 2, 3), (2, 2))
    with pytest.raises(ValueError):
        classify_rise((1, 2, 3), (0, 2))


@pytest.mark.parametrize("word,label,image", [
    ("124365", (3, 5), "126453"),
    ("1234", (1, 2), "2134"),
    ("2143", (1, 4), "3412"),
    ("124365", (2, 3), "143265"),
    ("143265", (1, 2), "423165"),
    ("423165", (3, 5), "426153"),
    ("126453", (1, 2), "216453"),
    ("216453", (1, 4), "426153"),
    ("3412", (1, 2), "4321"),
])
def test_ct_examples(word, label, image):
    assert ct(parse_perm(word), label) == parse_perm(image)


def test_ct_rejects_unsuitable():
    with pytest.raises(ValueError):
        ct((2, 1, 4, 3), (1, 2))
    with pytest.raises(ValueError):
        ct((1, 3, 2), (1, 3))


def test_covers_examples():
    assert covers(reversal(5)) == ()
    got = {label: q for label, q in covers((1, 2, 3, 4))}
    assert got == {
        (1, 2): parse_perm("2134"),
        (2, 3): parse_perm("1324"),
        (3, 4): parse_perm("1243"),
    }
    prop19 = dict(covers(parse_perm("124365")))
    assert prop19[(3, 5)] == parse_perm("126453")
    assert prop19[(2, 3)] == parse_perm("143265")


def test_covers_equal_definition_route():
    # The one-scan covers against every pair classified by the definition.
    for n in range(1, 11):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for p in enumerate_involutions(n):
            expected = tuple((label, ct(p, label)) for label in pairs
                             if classify_rise(p, label) in SUITABLE)
            assert covers(p) == expected, p


def test_covers_sorted_by_label():
    for p in enumerate_involutions(5):
        labels = [label for label, _ in covers(p)]
        assert labels == sorted(labels)


def test_move_invariants_exhaustive():
    for n in range(1, 7):
        for p in enumerate_involutions(n):
            for label, q in covers(p):
                i, j = label
                kind = classify_rise(p, label)
                assert is_involution(q)
                assert rank(q) == rank(p) + 1
                assert q[i - 1] > q[j - 1]
                assert num_fixed_points(q) - num_fixed_points(p) \
                    == FIXED_DELTA[kind]


def test_covers_match_order_oracle():
    for n in range(1, 7):
        involutions = enumerate_involutions(n)
        view = poset_view(involutions)
        order_covers = {(view.elements[i], view.elements[j])
                        for i, j in view.covers}
        move_covers = {(p, q) for p in involutions for _, q in covers(p)}
        assert move_covers == order_covers


def test_cover_labels_unique_per_element():
    for n in range(1, 7):
        for p in enumerate_involutions(n):
            cover_map(p)  # raises if a cover repeats


def test_all_six_types_appear():
    seen = set()
    for p in enumerate_involutions(6):
        for label, _ in covers(p):
            seen.add(classify_rise(p, label))
    assert seen == set(SUITABLE)
