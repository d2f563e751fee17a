from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from invbruhat.perms import (
    MAX_N,
    brute_force_involutions,
    check_perm,
    compose,
    count_involutions,
    enumerate_involutions,
    format_perm,
    identity,
    is_involution,
    parse_perm,
    reversal,
    statistics,
)

perm_words = st.integers(min_value=1, max_value=MAX_N).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)


def test_check_perm_rejects_bad_words():
    with pytest.raises(ValueError):
        check_perm([1, 1, 2])
    with pytest.raises(ValueError):
        check_perm([0, 1, 2])
    with pytest.raises(ValueError):
        check_perm([])
    with pytest.raises(ValueError):
        check_perm(list(range(1, MAX_N + 2)))


def test_compose_examples():
    assert compose((1, 2, 3, 4), (1, 2, 3, 4)) == (1, 2, 3, 4)
    assert compose((2, 1, 3, 4), (1, 2, 4, 3)) == (2, 1, 4, 3)
    assert compose((2, 1, 4, 3), (2, 1, 4, 3)) == (1, 2, 3, 4)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_is_involution_examples():
    assert is_involution((1, 2, 3, 4))
    assert is_involution((4, 2, 6, 1, 5, 3))
    assert not is_involution((2, 3, 1, 4))


def test_involution_iff_self_inverse_exhaustive():
    for n in range(1, 6):
        for p in permutations(range(1, n + 1)):
            assert is_involution(p) == (compose(p, p) == identity(n))


def test_statistics_examples():
    assert statistics((1, 2, 3, 4)) == (0, 0, (1, 2, 3, 4))
    assert statistics((4, 2, 6, 1, 5, 3)) == (8, 2, (2, 5))
    assert statistics((6, 5, 4, 3, 2, 1)) == (15, 3, ())


def test_enumerate_involutions_counts():
    assert enumerate_involutions(1) == ((1,),)
    assert len(enumerate_involutions(4)) == 10
    assert len(enumerate_involutions(6)) == 76
    for n in range(1, 11):
        assert len(enumerate_involutions(n)) == count_involutions(n)
    assert count_involutions(12) == 140152


def test_enumerate_involutions_matches_brute_force():
    for n in range(1, 8):
        assert enumerate_involutions(n) == brute_force_involutions(n)


def test_enumerate_involutions_sorted_unique():
    for n in range(1, 8):
        inv = enumerate_involutions(n)
        assert list(inv) == sorted(set(inv))


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_involutions(MAX_N + 1)


def test_involution_statistics_invariants():
    for n in range(1, 8):
        for p in enumerate_involutions(n):
            inv, exc, fixed = statistics(p)
            assert inv >= exc
            assert (inv + exc) % 2 == 0
            assert len(fixed) % 2 == n % 2


def test_parse_format_examples():
    assert parse_perm("426153") == (4, 2, 6, 1, 5, 3)
    assert parse_perm("4,2,6,1,5,3") == (4, 2, 6, 1, 5, 3)
    assert parse_perm(" 2,1 ") == (2, 1)
    assert format_perm((4, 2, 6, 1, 5, 3)) == "426153"
    big = tuple(range(10, 0, -1))
    assert format_perm(big) == "10,9,8,7,6,5,4,3,2,1"
    assert parse_perm(format_perm(big)) == big


def test_parse_rejects_garbage():
    for text in ["", "0", "12x", "1,2,2", "1223334444"]:
        with pytest.raises(ValueError):
            parse_perm(text)


@given(perm_words)
def test_parse_format_round_trip(p):
    assert parse_perm(format_perm(p)) == p


@given(perm_words)
def test_reversal_and_identity_are_extremes_of_inv(p):
    n = len(p)
    inv = statistics(p)[0]
    assert 0 <= inv <= statistics(reversal(n))[0]
    assert statistics(identity(n))[0] == 0
