import hashlib
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from invbruhat.bruhat import PosetView, bruhat_leq, poset_view
from invbruhat.cli import main
from invbruhat.fpclasses import (
    MAX_VIEW_N,
    _verify_class_chains,
    all_specs,
    class_view,
    enumerate_class,
    gapped_counts_witness,
    involution_view,
    is_graded_bruteforce,
    is_graded_rule,
    isolated_count_witness,
    make_spec,
    minimal_elements,
    rank_in_involutions,
    rank_value,
    top_element,
)
from invbruhat.moves import cover_map
from invbruhat.perms import (
    MAX_N,
    enumerate_involutions,
    format_perm,
    num_fixed_points,
    parse_perm,
    statistics,
)


VIEWS_GOLDEN = Path(__file__).parent / "golden" / "class_views_n8_n9.json"


def words(*texts):
    return tuple(parse_perm(t) for t in texts)


def class_view_digests():
    """Class name -> SHA-256 of its sorted counts, elements and covers, for
    every count set at n = 8 and n = 9."""
    digests = {}
    for n in (8, 9):
        for spec in all_specs(n):
            view = class_view(spec)
            text = json.dumps([sorted(spec.counts), view.elements,
                               view.covers])
            digests[spec.describe()] = \
                hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_make_spec_examples():
    assert make_spec(4, {0}).counts == frozenset({0})
    assert make_spec(6, {2}).a_tilde == 2
    for bad in [set(), {1}, {8}, {-2}]:
        with pytest.raises(ValueError):
            make_spec(6, bad)


def test_spec_derived_parameters():
    spec = make_spec(8, {0, 2, 4, 8})
    assert spec.a_min == 0
    assert spec.a_tilde == 4
    assert spec.run_params() == (0, 4)
    assert make_spec(8, {0, 4}).run_params() is None
    assert make_spec(8, {8}).run_params() is None
    assert make_spec(8, {8}).a_tilde is None


def test_all_specs_counts():
    assert len(all_specs(6)) == 15
    assert len(all_specs(8)) == 31


def test_enumerate_class_examples():
    assert enumerate_class(make_spec(4, {4})) == ((1, 2, 3, 4),)
    assert enumerate_class(make_spec(4, {0})) == words("2143", "3412", "4321")
    assert len(enumerate_class(make_spec(6, {0, 4}))) == 30


def test_enumerate_class_equals_filtering_every_involution():
    for n in range(1, 8):
        for spec in all_specs(n):
            assert enumerate_class(spec) == tuple(
                p for p in enumerate_involutions(n)
                if num_fixed_points(p) in spec.counts), spec


def test_is_graded_bruteforce_examples():
    singleton = poset_view([(1, 2, 3, 4)])
    report = is_graded_bruteforce(singleton)
    assert report.graded and report.ranks == (0,)
    assert not is_graded_bruteforce(class_view(make_spec(6, {2}))).graded
    assert not is_graded_bruteforce(class_view(make_spec(6, {0, 4}))).graded


def test_is_graded_bruteforce_unequal_heights():
    # two maximal chains of different lengths through shared bottom
    a, b, c, d = words("1234", "2134", "2143", "4321")
    view = PosetView(elements=(a, b, c, d),  # covers a-b, b-c and a-d
                     covers=((0, 1), (0, 3), (1, 2)))
    assert not is_graded_bruteforce(view).graded


def test_is_graded_bruteforce_element_in_no_cover_beside_a_chain():
    a, b, c = words("123", "132", "213")
    view = PosetView(elements=(a, b, c), covers=((0, 1),))  # c is alone
    assert not is_graded_bruteforce(view).graded
    alone = PosetView(elements=(a, b, c), covers=())
    assert is_graded_bruteforce(alone).ranks == (0, 0, 0)


def test_is_graded_bruteforce_minimal_element_listed_last_but_one():
    # Position 0 is always minimal, so a second minimal element is the
    # latest a minimal element can be listed: here c, last but one.
    a, b, c, d = words("1234", "2134", "1243", "2143")
    view = PosetView(elements=(a, b, c, d), covers=((0, 1), (2, 3)))
    assert is_graded_bruteforce(view).ranks == (0, 1, 0, 1)
    # d's lower covers b (height 1) and c (height 0) are read in that order
    view = PosetView(elements=(a, b, c, d), covers=((0, 1), (1, 3), (2, 3)))
    assert not is_graded_bruteforce(view).graded


def test_is_graded_rule_examples():
    assert not is_graded_rule(make_spec(6, {2}))
    assert is_graded_rule(make_spec(6, {4}))
    assert is_graded_rule(make_spec(8, {2, 4}))
    assert is_graded_rule(make_spec(6, {6}))
    assert is_graded_rule(make_spec(6, {0, 6}))
    assert not is_graded_rule(make_spec(8, {0, 4}))


def test_rule_matches_bruteforce_small():
    for n in (4, 5, 6):
        for spec in all_specs(n):
            brute = is_graded_bruteforce(class_view(spec)).graded
            assert is_graded_rule(spec) == brute, spec


def test_graded_iff_without_identity_class():
    # adjoining or removing the full-fixed-count never changes gradedness
    for n in (4, 5, 6):
        for spec in all_specs(n):
            if spec.counts == {n} or n not in spec.counts:
                continue
            without = make_spec(n, spec.counts - {n})
            assert is_graded_rule(spec) == is_graded_rule(without)
            assert (
                is_graded_bruteforce(class_view(spec)).graded
                == is_graded_bruteforce(class_view(without)).graded
            )


def test_rank_value_examples():
    assert rank_value(parse_perm("2143"), make_spec(4, {0})) == 0
    assert rank_value(parse_perm("654321"), make_spec(6, {0})) == 6
    # identity in a graded class containing it is the minimum, rank 0
    assert rank_value(parse_perm("1234"), make_spec(4, {2, 4})) == 0
    assert rank_value(parse_perm("1234"), make_spec(4, {0, 4})) == 0


def test_rank_value_shifted_formula_misses_identity():
    # the raw shift (inv + exc - n + a~)/2 + 1 would give -1 for the
    # identity in the class with counts {0, 4}; its true rank is 0
    spec = make_spec(4, {0, 4})
    view = class_view(spec)
    report = is_graded_bruteforce(view)
    assert report.graded
    assert report.ranks[view.elements.index((1, 2, 3, 4))] == 0
    raw = Fraction(0 + 0 - 4 + spec.a_tilde, 2) + 1
    assert raw == -1


def test_rank_value_errors():
    with pytest.raises(ValueError):
        rank_value(parse_perm("2143"), make_spec(4, {2}))  # not in class
    with pytest.raises(ValueError):
        rank_value(parse_perm("124365"), make_spec(6, {2}))  # not graded
    assert rank_value(parse_perm("1234"), make_spec(4, {4})) == 0


def test_rank_in_involutions_examples():
    assert rank_in_involutions(parse_perm("1234")) == 0
    assert rank_in_involutions(parse_perm("426153")) == 5
    # top of the 4-letter involution order: inv 6, exc 2
    assert rank_in_involutions(parse_perm("4321")) == 4
    with pytest.raises(ValueError):
        rank_in_involutions(parse_perm("2314"))


def test_rank_closed_forms_on_extreme_classes():
    # fewest fixed points: rank = (inv - floor(n/2))/2; most non-trivial
    # fixed points (n-2): rank = (inv - 1)/2
    for n in range(2, 9):
        lowest = make_spec(n, {n % 2})
        for p in enumerate_class(lowest):
            inv = statistics(p)[0]
            assert rank_value(p, lowest) == (inv - n // 2) // 2
        near_id = make_spec(n, {n - 2})
        for p in enumerate_class(near_id):
            inv = statistics(p)[0]
            assert rank_value(p, near_id) == (inv - 1) // 2


def test_top_element_examples():
    assert top_element(make_spec(6, {0})) == parse_perm("654321")
    assert top_element(make_spec(6, {2})) == parse_perm("653421")
    assert top_element(make_spec(4, {4})) == (1, 2, 3, 4)


def test_top_element_statistics_and_maximality():
    for n in range(1, 8):
        for spec in all_specs(n):
            top = top_element(spec)
            inv, exc, _ = statistics(top)
            a = spec.a_min
            assert inv == (n - a) * (n + a - 1) // 2
            assert exc == (n - a) // 2
            assert num_fixed_points(top) == a
            for p in enumerate_class(spec):
                assert bruhat_leq(p, top)


def test_class_view_equals_dot_criterion_view():
    for n in range(1, 8):
        for spec in all_specs(n):
            restricted = class_view(spec)
            direct = poset_view(enumerate_class(spec))
            assert restricted.elements == direct.elements, spec
            assert restricted.covers == direct.covers, spec


def test_whole_view_carries_the_rise_label_of_every_cover():
    for n in range(1, 8):
        whole = involution_view(n)
        e = whole.elements
        assert len(whole.labels) == len(whole.covers)
        assert None not in whole.labels
        for (i, j), label in zip(whole.covers, whole.labels):
            assert cover_map(e[i])[e[j]] == label


def test_full_count_set_is_the_whole_view_and_proper_classes_unlabelled():
    for n in range(1, 8):
        for spec in all_specs(n):
            view = class_view(spec)
            if len(spec.counts) == n // 2 + 1:
                assert view is involution_view(n)
            elif spec.counts == {n}:
                assert view.labels == ()  # the identity alone: no cover
            else:
                assert view.labels is None, spec


@pytest.mark.parametrize("n", [6, 7])
def test_restrict_to_random_subsets_equals_dot_criterion_view(n):
    whole = involution_view(n)
    classes = {frozenset(enumerate_class(spec)) for spec in all_specs(n)}
    rng = random.Random(n)
    for _ in range(25):
        where = sorted(rng.sample(range(len(whole.elements)),
                                  rng.randrange(1, len(whole.elements))))
        subset = [whole.elements[i] for i in where]
        assert frozenset(subset) not in classes
        restricted = whole.restrict(where)
        direct = poset_view(subset)
        assert restricted.elements == direct.elements
        assert restricted.covers == direct.covers


def test_class_views_match_the_pinned_golden_file():
    # made by running this module as a script: 62 count sets at n = 8, 9
    assert class_view_digests() == json.loads(VIEWS_GOLDEN.read_text())


def test_minimal_elements_examples():
    assert minimal_elements(make_spec(4, {0})) == words("2143")
    assert len(minimal_elements(make_spec(6, {0, 2}))) == 6
    assert minimal_elements(make_spec(5, {5})) == ((1, 2, 3, 4, 5),)


def is_adjacent_pairing(p):
    i = 1
    while i <= len(p):
        if p[i - 1] == i:
            i += 1
        elif p[i - 1] == i + 1 and p[i] == i:
            i += 2
        else:
            return False
    return True


def test_minimal_elements_characterisation_small():
    # both directions on all 82 count sets at n <= 8: the minimal elements
    # are exactly the involutions with max A fixed points whose 2-cycles
    # are adjacent transpositions, C((n + a)/2, (n - a)/2) of them
    for n in range(1, 9):
        for spec in all_specs(n):
            a_max = max(spec.counts)
            shaped = tuple(p for p in enumerate_involutions(n)
                           if num_fixed_points(p) == a_max
                           and is_adjacent_pairing(p))
            view = class_view(spec)  # the oracle: elements without a cover
            covered = {j for _, j in view.covers}
            by_view = tuple(x for j, x in enumerate(view.elements)
                            if j not in covered)
            assert minimal_elements(spec) == by_view == shaped, spec
            assert len(shaped) == comb((n + a_max) // 2, (n - a_max) // 2)
            for p in shaped:
                assert rank_in_involutions(p) == (n - a_max) // 2


def test_minimal_elements_past_the_view_cap_need_no_order():
    # past the cap, building the order raises
    for n in range(MAX_VIEW_N + 1, MAX_N + 1):
        for spec in all_specs(n):
            a_max = max(spec.counts)
            lows = minimal_elements(spec)
            assert len(lows) == comb((n + a_max) // 2, (n - a_max) // 2)
            assert list(lows) == sorted(set(lows))
            for p in lows:
                assert num_fixed_points(p) == a_max and is_adjacent_pairing(p)


def derivable_specs(n):
    """The count sets A with n and some other count.  The identity is the
    bottom of each view, and dropping it gives the view of A - {n}: that
    is how check-graded over all classes reads A - {n}, and how
    class_view reads the full set minus n off the whole order."""
    return [spec for spec in all_specs(n)
            if n in spec.counts and spec.counts != {n}]


def test_derived_class_views_equal_the_plain_peel():
    for n in range(1, 9):
        whole = involution_view(n)
        where = {p: i for i, p in enumerate(whole.elements)}
        for spec in derivable_specs(n):
            rest = make_spec(n, spec.counts - {n})
            peeled = whole.restrict([where[p] for p in enumerate_class(rest)])
            for view in class_view(spec).drop_bottom(), class_view(rest):
                assert view.elements == peeled.elements, spec
                assert view.covers == peeled.covers, spec


def test_identity_is_covered_by_the_minimal_elements_of_the_rest():
    for n in range(2, 9):
        for spec in derivable_specs(n):
            view = class_view(spec)
            assert view.elements[0] == tuple(range(1, n + 1))
            above = tuple(view.elements[j] for i, j in view.covers if i == 0)
            rest = make_spec(n, spec.counts - {n})
            assert above == minimal_elements(rest), spec


def graded_with_long_covers(spec, view: PosetView) -> bool:
    """Whether the class view is graded and has a cover that skips an
    ambient rank, asserting that every such cover starts at the identity."""
    if not is_graded_bruteforce(view).graded:
        return False
    rank = [rank_in_involutions(p) for p in view.elements]
    lows = {view.elements[i] for i, j in view.covers if rank[j] - rank[i] > 1}
    assert lows <= {tuple(range(1, spec.n + 1))}, spec
    return bool(lows)


def test_long_covers_of_graded_classes_start_at_the_identity():
    # observed, not cited: 10 graded classes at n <= 8 have long covers
    assert sum(graded_with_long_covers(spec, class_view(spec))
               for n in range(1, 9) for spec in all_specs(n)) == 10


@pytest.mark.slow
def test_long_covers_and_minimal_elements_up_to_n10():
    with_long = 0
    for n in range(1, 11):
        for spec in all_specs(n):
            view = class_view(spec)
            covered = {j for _, j in view.covers}
            assert minimal_elements(spec) == tuple(
                x for j, x in enumerate(view.elements) if j not in covered), \
                spec
            with_long += graded_with_long_covers(spec, view)
    assert with_long == 21


def test_check_graded_over_all_classes_peels_once_per_pair(monkeypatch,
                                                             capsys):
    peels = []
    restrict = PosetView.restrict

    def counted(view, where):
        peels.append(len(where))
        return restrict(view, where)

    monkeypatch.setattr(PosetView, "restrict", counted)
    assert main(["check-graded", "--n", "8", "--all-classes"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    # 14 of the 31 count sets: the 16 with n but the full set and {n};
    # each class without n is read off its partner's view, not peeled
    assert len(peels) == 14


def test_poset_rank_examples():
    for n, counts, rank in ((6, {0}, 6), (4, {2}, 2), (4, {4}, 0)):
        spec = make_spec(n, counts)
        assert rank_value(top_element(spec), spec) == rank


def test_displayed_global_rank_expression_is_not_integral():
    # ((n-a)/2 (n+a-1) - n + a~)/2 at n=6, counts {0} gives 9/2, while
    # the actual poset rank is 6; the expression drops the exceedance
    # contribution of the maximum and is not used anywhere
    n, spec = 6, make_spec(6, {0})
    a, a_tilde = spec.a_min, spec.a_tilde
    displayed = Fraction(Fraction(n - a, 2) * (n + a - 1) - n + a_tilde, 2)
    assert displayed == Fraction(9, 2)
    assert rank_value(top_element(spec), spec) == 6


def test_isolated_count_witness_words():
    w = isolated_count_witness(6, 2)
    assert [format_perm(p) for p in w.long_chain] == \
        ["124365", "143265", "423165", "426153"]
    assert [format_perm(p) for p in w.short_chain] == \
        ["124365", "216453", "426153"]
    assert w.bottom == w.long_chain[0] == w.short_chain[0]
    assert w.top == w.long_chain[-1] == w.short_chain[-1]
    assert w.spec.counts == frozenset({2})


def test_isolated_count_witness_padded():
    w = isolated_count_witness(8, 2)
    assert [format_perm(p) for p in w.long_chain] == \
        ["12436587", "14326587", "42316587", "42615387"]
    w = isolated_count_witness(8, 4)
    assert [format_perm(p) for p in w.short_chain] == \
        ["12436578", "21645378", "42615378"]
    assert all(num_fixed_points(p) == 4 for p in w.short_chain)


def test_isolated_count_witness_range_errors():
    for n, i in [(6, 4), (6, 0), (6, 3), (8, 8), (9, 2)]:
        with pytest.raises(ValueError):
            isolated_count_witness(n, i)


def test_gapped_counts_witness_core():
    w = gapped_counts_witness(6, 2, 1)
    assert [format_perm(p) for p in w.long_chain] == \
        ["123465", "123654", "126453", "163452", "623451"]
    assert [format_perm(p) for p in w.short_chain] == \
        ["123465", "214365", "623451"]
    assert [num_fixed_points(p) for p in w.short_chain] == [4, 0, 4]
    assert [num_fixed_points(p) for p in w.long_chain] == [4] * 5
    assert w.spec.counts == frozenset({0, 4})


def test_gapped_counts_witness_padded():
    w = gapped_counts_witness(8, 2, 1)
    assert format_perm(w.bottom) == "12346587"
    assert format_perm(w.top) == "62345187"
    assert [num_fixed_points(p) for p in w.short_chain] == [4, 0, 4]
    w10 = gapped_counts_witness(10, 4, 1)
    assert w10.spec.counts == frozenset({2, 6})
    assert len(w10.long_chain) == 5 and len(w10.short_chain) == 3


def test_gapped_counts_witness_range_errors():
    for n, i, m in [(6, 2, 0), (6, 1, 1), (6, 4, 1), (7, 2, 1), (5, 2, 1)]:
        with pytest.raises(ValueError):
            gapped_counts_witness(n, i, m)


def test_witness_chains_are_saturated_in_class():
    # the constructions re-verify each edge; spot-check one by hand too
    w = isolated_count_witness(6, 2)
    elements = enumerate_class(w.spec)
    for chain in (w.long_chain, w.short_chain):
        for x, y in zip(chain, chain[1:]):
            assert bruhat_leq(x, y)
            assert not any(
                z not in (x, y) and bruhat_leq(x, z) and bruhat_leq(z, y)
                for z in elements
            )


def test_witness_check_raises_on_each_fault():
    w = isolated_count_witness(6, 2)
    elements = enumerate_class(w.spec)
    long_chain, short_chain = w.long_chain, w.short_chain
    _verify_class_chains((long_chain, short_chain), elements)
    outside = parse_perm("214365")  # no fixed point
    for chains, message in [
        ((long_chain, (short_chain[0], outside, short_chain[2])),
         r"chain element \(2, 1, 4, 3, 6, 5\) is outside the class"),
        ((long_chain[::-1], short_chain),
         r"chain step \(4, 2, 6, 1, 5, 3\) -> \(4, 2, 3, 1, 6, 5\) is not "
         r"an order step"),
        ((long_chain, short_chain[::2]),
         r"chain step \(1, 2, 4, 3, 6, 5\) -> \(4, 2, 6, 1, 5, 3\) is not "
         r"a cover: \(.*\) lies between"),
    ]:
        with pytest.raises(AssertionError, match=message):
            _verify_class_chains(chains, elements)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_fpclasses.py rewrites the golden file
    VIEWS_GOLDEN.write_text(json.dumps(class_view_digests(), indent=1,
                                       sort_keys=True) + "\n")
