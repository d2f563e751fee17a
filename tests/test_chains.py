import pytest

from invbruhat.bruhat import UniverseIndex, bits
from invbruhat.chains import (
    Chain,
    ChainGuardExceeded,
    all_saturated_chains,
    decreasing_chain,
    di,
    increasing_chain,
    is_strictly_decreasing,
    is_weakly_increasing,
    iter_saturated_chains,
)
from invbruhat.perms import enumerate_involutions, identity, parse_perm, reversal


def words(*texts):
    return tuple(parse_perm(t) for t in texts)


def comparable_pairs(n):
    idx = UniverseIndex(enumerate_involutions(n))
    for i, p in enumerate(idx.elements):
        for j in bits(idx.up[i]):
            yield p, idx.elements[j]


def test_di_examples():
    assert di(*words("124365", "426153")) == 1
    assert di(*words("124365", "126453")) == 3
    assert di(*words("2143", "3412")) == 1


def test_di_rejects_equal():
    with pytest.raises(ValueError):
        di((1, 2), (1, 2))


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
    for make in (increasing_chain, decreasing_chain, all_saturated_chains):
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


def test_chain_verify_replays_moves():
    chain = increasing_chain(*words("124365", "426153"))
    chain.verify()
    broken = Chain(elements=chain.elements, labels=((1, 2),) * len(chain.labels))
    with pytest.raises(AssertionError):
        broken.verify()


def test_uniqueness_and_lex_minimality_exhaustive():
    # in every interval: exactly one weakly increasing chain, exactly one
    # strictly decreasing one (which is the only weakly decreasing one),
    # greedy constructions find them, the increasing one is lex-minimal,
    # and every label's first coordinate is at least di(bottom, top)
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
            h = di(p, q)
            for c in chains:
                assert all(i >= h for i, _ in c.labels)


def test_chain_guard_trips_on_big_interval():
    with pytest.raises(ChainGuardExceeded):
        all_saturated_chains(identity(6), reversal(6))
    lazily = sum(1 for _ in iter_saturated_chains(identity(6), reversal(6)))
    assert lazily == 18144
