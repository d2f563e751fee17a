import hashlib
import json
from pathlib import Path

import pytest

from invbruhat.bruhat import Label, PosetView, UniverseIndex, bits
from invbruhat.elshell import (
    ELReport,
    LabelOrder,
    el_check,
    el_check_by_enumeration,
    find_escaping_interval,
    fpf_decreasing_chain,
    labelled_class_view,
)
from invbruhat.fpclasses import (MAX_VIEW_N, all_specs, class_view,
                                 involution_view, make_spec)
from invbruhat.moves import cover_map, covers
from invbruhat.perms import (enumerate_involutions, format_perm,
                             num_fixed_points, parse_perm)

EL_GOLDEN = Path(__file__).parent / "golden" / "el_check_n8.json"


def words(*texts):
    return tuple(parse_perm(t) for t in texts)


def label_map(view):
    """(lower, upper) element pair -> label, for every cover of ``view``."""
    e = view.elements
    return {(e[i], e[j]): label
            for (i, j), label in zip(view.covers, view.labels)}


def labelled_view(elements, labels):
    """The view on ``elements`` whose covers are the (lower, upper) pairs
    keyed in ``labels``, each carrying its label."""
    index = {p: i for i, p in enumerate(elements)}
    edges = sorted(((index[a], index[b]), l) for (a, b), l in labels.items())
    return PosetView(elements=elements, covers=tuple(e for e, _ in edges),
                     labels=tuple(l for _, l in edges))


def fpf_pairs(n):
    universe = [p for p in enumerate_involutions(n) if num_fixed_points(p) == 0]
    idx = UniverseIndex(universe)
    for i, p in enumerate(idx.elements):
        for j in bits(idx.up[i]):
            yield p, idx.elements[j]


def test_label_orders():
    std, rev = LabelOrder.STANDARD_LEX, LabelOrder.REVERSED_LEX
    assert std.key((1, 2)) < std.key((1, 3)) < std.key((2, 3))
    assert rev.key((2, 3)) < rev.key((1, 4)) < rev.key((1, 2))


def test_labelled_class_view_small():
    view = labelled_class_view(make_spec(4, {0}))
    assert label_map(view) == {
        words("2143", "3412"): (1, 4),
        words("3412", "4321"): (1, 2),
    }
    view6 = labelled_class_view(make_spec(6, {0}))
    assert all(label is not None for label in view6.labels)


def test_labelled_class_view_marks_rank_jumps():
    view = labelled_class_view(make_spec(6, {2}))
    assert label_map(view)[words("124365", "216453")] is None
    labelled = [e for e, l in label_map(view).items() if l is not None]
    assert labelled  # plenty of ambient covers remain


def test_class_view_labels_come_from_the_upper_cover_map():
    checked = 0
    for n in range(1, 9):
        for spec in all_specs(n):
            checked += 1
            view = labelled_class_view(spec)
            assert view.covers == class_view(spec).covers
            e = view.elements
            assert view.labels == tuple(cover_map(e[i]).get(e[j])
                                        for i, j in view.covers), spec
    assert checked == 82


def test_the_identity_class_builds_no_order():
    spec = make_spec(11, {11})
    before = involution_view.cache_info()
    plain, labelled = class_view(spec), labelled_class_view(spec)
    assert involution_view.cache_info() == before
    assert plain.elements == labelled.elements == (tuple(range(1, 12)),)
    assert plain.covers == labelled.covers == labelled.labels == ()


def test_el_check_fixed_point_free_reversed():
    view = labelled_class_view(make_spec(4, {0}))
    report = el_check(view, LabelOrder.REVERSED_LEX)
    assert report.applicable and report.is_el and not report.violations


def test_el_check_full_involution_order_standard():
    view = labelled_class_view(make_spec(4, {0, 2, 4}))
    report = el_check(view, LabelOrder.STANDARD_LEX)
    assert report.applicable and report.is_el


def test_el_check_standard_order_fails_on_fpf_class():
    view = labelled_class_view(make_spec(6, {0}))
    report = el_check(view, LabelOrder.STANDARD_LEX)
    assert report.applicable and not report.is_el
    assert report.violations


def test_el_check_agrees_with_enumeration():
    cases = [
        (make_spec(4, {0}), LabelOrder.REVERSED_LEX),
        (make_spec(4, {0, 2, 4}), LabelOrder.STANDARD_LEX),
        (make_spec(5, {1, 3, 5}), LabelOrder.STANDARD_LEX),
        (make_spec(6, {0}), LabelOrder.REVERSED_LEX),
        (make_spec(6, {0}), LabelOrder.STANDARD_LEX),
    ]
    for spec, order in cases:
        view = labelled_class_view(spec)
        fast = el_check(view, order)
        slow = el_check_by_enumeration(view, order)
        assert (fast.applicable, fast.is_el, fast.violations) \
            == (slow.applicable, slow.is_el, slow.violations)


def test_el_check_matches_enumeration_on_every_case_up_to_n6():
    # I_6 is left out: its longest intervals have more chains than the
    # oracle's 10,000-chain guard allows
    whole_order_6 = frozenset({0, 2, 4, 6})
    compared = 0
    for n in range(1, 7):
        for spec in all_specs(n):
            if spec.n == 6 and spec.counts == whole_order_6:
                continue
            view = labelled_class_view(spec)
            for order in LabelOrder:
                try:
                    fast = el_check(view, order)
                except ValueError:
                    continue  # an unbounded class has no EL question
                if not fast.applicable:
                    continue
                assert fast == el_check_by_enumeration(view, order), \
                    (spec, order)
                compared += 1
    assert compared == 34


def test_el_check_pins_the_standard_lex_failures_on_fpf_classes():
    for n, count in ((6, 40), (8, 2081)):
        view = labelled_class_view(make_spec(n, {0}))
        report = el_check(view, LabelOrder.STANDARD_LEX)
        assert len(report.violations) == count
        assert {why for _, _, why in report.violations} \
            == {"no-increasing-chain"}


def el_check_summaries() -> dict[str, dict]:
    """``el_check``'s report on every (count set, order) case at n <= 8,
    keyed by class and order: applicable, is_el, the violation count and
    a SHA-256 of the sorted violations, or the message of the ValueError
    raised instead."""
    summaries = {}
    for n in range(1, 9):
        for spec in all_specs(n):
            view = labelled_class_view(spec)
            for order in LabelOrder:
                try:
                    report = el_check(view, order)
                except ValueError as exc:
                    entry = {"error": str(exc)}
                else:
                    violations = [[format_perm(a), format_perm(b), why]
                                  for a, b, why in sorted(report.violations)]
                    digest = hashlib.sha256(
                        json.dumps(violations).encode()).hexdigest()
                    entry = {"applicable": report.applicable,
                             "is_el": report.is_el,
                             "violations": len(violations),
                             "sha256": digest}
                summaries[f"{spec.describe()} {order.value}"] = entry
    return summaries


def test_el_check_reports_match_the_pinned_golden_file():
    # made by running this module as a script: 82 count sets x 2 orders
    assert el_check_summaries() == json.loads(EL_GOLDEN.read_text())


def diamond(left: tuple[Label, Label], right: tuple[Label, Label]) -> PosetView:
    """Bottom 1234 and top 2143 joined through 2134 (left) and 1243
    (right), each edge carrying the given label."""
    bottom, b, c, top = words("1234", "2134", "1243", "2143")
    return labelled_view(
        elements=(bottom, c, b, top),
        labels={(bottom, b): left[0], (b, top): left[1],
                (bottom, c): right[0], (c, top): right[1]},
    )


@pytest.mark.parametrize("left, right, reason", [
    # both chains rise
    (((1, 2), (3, 4)), ((2, 3), (3, 5)), "multiple-increasing-chains"),
    # only the right chain rises, but the left one is lex-smaller
    (((1, 2), (1, 1)), ((2, 3), (3, 4)), "increasing-not-lex-min"),
])
def test_el_check_reports_each_reason_on_a_diamond(left, right, reason):
    view = diamond(left, right)
    report = el_check(view, LabelOrder.STANDARD_LEX)
    assert report.violations == ((view.elements[0], view.elements[3], reason),)
    assert report == el_check_by_enumeration(view, LabelOrder.STANDARD_LEX)


def test_el_check_not_applicable_with_unlabelled_covers():
    view = labelled_class_view(make_spec(6, {2}))
    report = el_check(view, LabelOrder.REVERSED_LEX)
    assert not report.applicable and not report.is_el


def test_el_check_rejects_ungraded_view():
    with pytest.raises(ValueError):
        el_check(ungraded_view(), LabelOrder.STANDARD_LEX)


def test_el_check_rejects_unbounded_view():
    with pytest.raises(ValueError):
        el_check(unbounded_view(), LabelOrder.STANDARD_LEX)


def unbounded_view():
    """Graded, with two minimal and two maximal elements."""
    a, b, c, d = words("1234", "2134", "1243", "2143")
    return labelled_view(
        elements=(a, b, c, d),
        labels={(a, b): (1, 2), (c, d): (1, 2)},
    )


def ungraded_view():
    a, b, c = words("1234", "2134", "2143")
    return labelled_view(
        elements=(a, b, c),
        labels={(a, b): (1, 2), (b, c): (3, 4), (a, c): (1, 3)},
    )


@pytest.mark.parametrize("make_view, expected", [
    (lambda: labelled_class_view(make_spec(6, {2})),
     ELReport(applicable=False, is_el=False, violations=())),
    (ungraded_view, "view is not graded"),
    (unbounded_view, "view is not bounded"),
    (lambda: labelled_view(words("1234", "1243", "2134"),
                           {words("1234", "1243"): (3, 4),
                            words("1234", "2134"): (1, 2)}),
     "view is not bounded"),
    (lambda: labelled_view(words("1243", "2134", "2143"),
                           {words("1243", "2143"): (1, 2),
                            words("2134", "2143"): (3, 4)}),
     "view is not bounded"),
    (lambda: PosetView(elements=(), covers=(), labels=()),
     "view is not bounded"),
    (lambda: diamond(((1, 2), (3, 4)), ((1, 2), (3, 5))),
     "element (1, 2, 3, 4) repeats a cover label"),
    (lambda: PosetView(elements=words("1234"), covers=(), labels=()),
     ELReport(applicable=True, is_el=True, violations=())),
], ids=["unlabelled", "ungraded", "unbounded", "two-tops", "two-bottoms",
        "empty", "repeated-label", "one-element"])
def test_both_el_routes_return_or_refuse_alike(make_view, expected):
    """Each route returns the expected report or raises ValueError with
    the expected message, so the oracle refuses exactly what
    ``el_check`` refuses."""
    view = make_view()
    for route in (el_check, el_check_by_enumeration):
        for order in LabelOrder:
            try:
                outcome = route(view, order)
            except ValueError as exc:
                outcome = str(exc)
            assert outcome == expected, (route.__name__, order)


@pytest.mark.parametrize("call, expected", [
    (lambda: covers((2, 3, 1)), "not an involution"),
    (lambda: parse_perm("1,x,3"), "bad permutation word"),
    (lambda: involution_view(MAX_VIEW_N + 1), "above the view cap"),
    (lambda: UniverseIndex([]), "empty universe"),
    (lambda: el_check(diamond(((1, 2), (3, 4)), ((1, 2), (3, 5))),
                      LabelOrder.STANDARD_LEX), "repeats a cover label"),
    (lambda: el_check_by_enumeration(labelled_class_view(make_spec(6, {2})),
                                     LabelOrder.STANDARD_LEX),
     ELReport(applicable=False, is_el=False, violations=())),
    (lambda: el_check_by_enumeration(ungraded_view(),
                                     LabelOrder.STANDARD_LEX),
     "view is not graded"),
], ids=["covers-non-involution", "parse-bad-word", "view-above-cap",
        "empty-universe", "repeated-label", "enumeration-unlabelled",
        "enumeration-ungraded"])
def test_each_guard_raises_or_reports(call, expected):
    """Guards the other tests never reach: each raises ValueError with its
    message, or returns the not-applicable report."""
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call()
    else:
        assert call() == expected


def test_fpf_decreasing_chain_example():
    holds, chain = fpf_decreasing_chain(*words("2143", "4321"))
    assert holds
    assert chain.elements == words("2143", "3412", "4321")


def test_fpf_decreasing_chain_trivial_cover():
    holds, chain = fpf_decreasing_chain(*words("2143", "3412"))
    assert holds and len(chain) == 1


def test_fpf_decreasing_chain_sweep_n6():
    for p, q in fpf_pairs(6):
        holds, _ = fpf_decreasing_chain(p, q)
        assert holds


def test_fpf_decreasing_chain_rejects_fixed_points():
    with pytest.raises(ValueError):
        fpf_decreasing_chain(parse_perm("1234"), parse_perm("4321"))


def test_lex_maximal_chain_is_the_decreasing_one():
    # among all ambient chains of a fixed-point-free pair, the label-wise
    # lexicographically greatest is exactly the decreasing chain
    from invbruhat.chains import all_saturated_chains, decreasing_chain

    for n in (2, 4, 6):
        for p, q in fpf_pairs(n):
            chains = all_saturated_chains(p, q, max_chains=100_000)
            greatest = max(c.labels for c in chains)
            assert decreasing_chain(p, q).labels == greatest


def test_graded_run_classes_have_fully_labelled_views():
    # counts forming a full step-2 run: every induced cover of a graded
    # class is an ambient cover, hence labelled
    from invbruhat.fpclasses import is_graded_rule

    def is_run(counts):
        values = sorted(counts)
        return all(b - a == 2 for a, b in zip(values, values[1:]))

    for n in range(2, 8):
        for spec in all_specs(n):
            if not is_run(spec.counts) or not is_graded_rule(spec):
                continue
            view = labelled_class_view(spec)
            assert all(l is not None for l in view.labels), spec


def test_graded_class_with_count_gap_at_top_has_unlabelled_cover():
    # adjoining the identity to the fixed-point-free class leaves a
    # graded poset, but the identity's covers jump two ambient ranks
    view = labelled_class_view(make_spec(4, {0, 4}))
    assert label_map(view)[words("1234", "2143")] is None


def test_find_escaping_interval_examples():
    found = find_escaping_interval(make_spec(6, {2}))
    assert found is not None
    p, q, kind = found
    assert kind in ("increasing", "decreasing")
    assert find_escaping_interval(make_spec(6, {0, 2})) is not None


def test_find_escaping_interval_preconditions():
    with pytest.raises(ValueError):
        find_escaping_interval(make_spec(4, {0}))
    with pytest.raises(ValueError):
        find_escaping_interval(make_spec(4, {4}))
    with pytest.raises(ValueError):
        find_escaping_interval(make_spec(4, {0, 2, 4}))  # whole order
    with pytest.raises(ValueError):
        find_escaping_interval(make_spec(6, {2}), kind="sideways")


def test_find_escaping_interval_kinds_at_n6():
    # every valid class at n = 6 has an increasing witness; all but
    # {0, 6} also have a decreasing one within length-2 intervals (the
    # decreasing chains of fixed-point-free pairs never leave the
    # fixed-point-free class, and identity-to-class gaps exceed 2)
    valid = [
        spec for spec in all_specs(6)
        if spec.counts not in (frozenset({0}), frozenset({6}))
        and spec.counts != frozenset({0, 2, 4})
        and spec.counts != frozenset({0, 2, 4, 6})
    ]
    assert len(valid) == 11
    for spec in valid:
        assert find_escaping_interval(spec, kind="increasing") is not None
        decreasing = find_escaping_interval(spec, kind="decreasing")
        if spec.counts == frozenset({0, 6}):
            assert decreasing is None
        else:
            assert decreasing is not None


def test_find_escaping_interval_midpoint_really_escapes():
    from invbruhat.chains import increasing_chain
    from invbruhat.fpclasses import in_class

    spec = make_spec(6, {2})
    p, q, kind = find_escaping_interval(spec, kind="increasing")
    chain = increasing_chain(p, q)
    assert len(chain) == 2
    assert in_class(p, spec) and in_class(q, spec)
    assert not in_class(chain.elements[1], spec)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_elshell.py rewrites the golden file
    EL_GOLDEN.write_text(json.dumps(el_check_summaries(), indent=1,
                                    sort_keys=True) + "\n")
