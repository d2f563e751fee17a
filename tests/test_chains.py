import pytest

from invbruhat.bruhat import UniverseIndex, bits
from invbruhat.chains import (
    Chain,
    ChainGuardExceeded,
    all_saturated_chains,
    count_saturated_chains,
    decreasing_chain,
    increasing_chain,
    is_strictly_decreasing,
    is_weakly_increasing,
    iter_saturated_chains,
)
from invbruhat.moves import covers, ct
from invbruhat.perms import enumerate_involutions, identity, parse_perm, reversal


def words(*texts):
    return tuple(parse_perm(t) for t in texts)


def comparable_pairs(n):
    idx = UniverseIndex(enumerate_involutions(n))
    for i, p in enumerate(idx.elements):
        for j in bits(idx.up[i]):
            yield p, idx.elements[j]


def test_chain_validates_label_count():
    with pytest.raises(ValueError):
        Chain(elements=words("1234", "2134"), labels=())


def test_trivial_chains():
    p = parse_perm("2143")
    for make in (increasing_chain, decreasing_chain):
        chain = make(p, p)
        assert chain.elements == (p,)
        assert chain.labels == ()
    [only] = all_saturated_chains(p, p)
    assert only.elements == (p,)


def test_increasing_chain_example():
    chain = increasing_chain(*words("1234", "2143"))
    assert chain.labels == ((1, 2), (3, 4))
    assert chain.elements == words("1234", "2134", "2143")


def test_decreasing_chain_example():
    chain = decreasing_chain(*words("1234", "2143"))
    assert chain.labels == ((3, 4), (1, 2))
    assert chain.elements == words("1234", "1243", "2143")


def test_incomparable_endpoints_rejected():
    for make in (increasing_chain, decreasing_chain, all_saturated_chains,
                 count_saturated_chains):
        with pytest.raises(ValueError):
            make(*words("2143", "1234"))


def test_small_interval_has_two_chains():
    chains = all_saturated_chains(*words("1234", "2143"))
    assert len(chains) == 2


def test_interval_chains_include_both_witness_routes():
    chains = all_saturated_chains(*words("124365", "426153"))
    routes = {c.elements[1:-1] for c in chains}
    assert words("143265", "423165") in routes
    assert words("126453", "216453") in routes


def test_uniqueness_and_lex_minimality_exhaustive():
    # in every interval: exactly one weakly increasing chain, exactly one
    # strictly decreasing one (which is the only weakly decreasing one),
    # greedy constructions find them, the increasing one is lex-minimal,
    # every label's first coordinate is at least the first position where
    # the bottom and top words differ, and every step is the move its
    # label names
    for n in range(2, 6):
        for p, q in comparable_pairs(n):
            chains = all_saturated_chains(p, q, max_chains=100_000)
            rising = [c for c in chains if is_weakly_increasing(c.labels)]
            falling = [c for c in chains if is_strictly_decreasing(c.labels)]
            weak_falling = [
                c for c in chains
                if all(a >= b for a, b in zip(c.labels, c.labels[1:]))
            ]
            assert len(rising) == 1
            assert len(falling) == 1
            assert weak_falling == falling
            assert increasing_chain(p, q) == rising[0]
            assert decreasing_chain(p, q) == falling[0]
            least = min(c.labels for c in chains)
            assert rising[0].labels == least
            h = next(i for i, (a, b) in enumerate(zip(p, q), start=1)
                     if a != b)
            for c in chains:
                assert all(i >= h for i, _ in c.labels)
                for x, y, label in zip(c.elements, c.elements[1:], c.labels):
                    assert ct(x, label) == y


def test_chain_guard_trips_on_big_interval():
    p, q = identity(6), reversal(6)
    with pytest.raises(ChainGuardExceeded):
        all_saturated_chains(p, q)
    lazily = sum(1 for _ in iter_saturated_chains(p, q))
    assert lazily == 18144
    # the guard's boundary is exact
    assert len(all_saturated_chains(p, q, max_chains=18_144)) == 18_144
    with pytest.raises(ChainGuardExceeded) as exc:
        all_saturated_chains(p, q, max_chains=18_143)
    assert str(exc.value) == f"interval [{p}, {q}] has more than 18143 chains"


def test_guard_trip_stops_the_count_early():
    # an exact count of identity -> reversal at n = 12 would scan all
    # 140,152 elements of I_12; the bounded one stops after about 100
    covers.cache_clear()
    with pytest.raises(ChainGuardExceeded):
        all_saturated_chains(identity(12), reversal(12))
    assert covers.cache_info().misses < 1_000


def dot_criterion_counts(n):
    """(p, q, number of chains from p to q) for every comparable pair,
    counted over the dot-criterion index alone: each element's count is
    the sum of its lower covers' counts, taken in position order (a
    linear extension)."""
    idx = UniverseIndex(enumerate_involutions(n))
    lower = [[] for _ in idx.elements]
    for i, j in idx.cover_pairs():
        lower[j].append(i)
    for i, p in enumerate(idx.elements):
        count = {i: 1}
        for j in (i, *bits(idx.up[i])):
            if j != i:
                count[j] = sum(count.get(k, 0) for k in lower[j])
            yield p, idx.elements[j], count[j]


def test_chain_counts_equal_dynamic_programming():
    for n in range(1, 7):
        for p, q, count in dot_criterion_counts(n):
            chains = list(iter_saturated_chains(p, q))
            assert len(chains) == count
            assert len(set(chains)) == len(chains)


def test_count_saturated_chains_equals_dynamic_programming():
    for n in range(1, 7):
        for p, q, count in dot_criterion_counts(n):
            assert count_saturated_chains(p, q) == count
            assert count_saturated_chains(p, q, max_chains=count) == count
            if count > 1:
                assert count_saturated_chains(p, q, max_chains=count - 1) > count - 1
    # the chain count perfbench computes on its own for the top of I_8
    assert count_saturated_chains(identity(8), reversal(8)) == 12_453_854_976
