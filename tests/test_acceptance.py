"""
Acceptance suite: one test per criterion, at full stated scale.

Each test prints a ``[criterion NN] PASS`` line once its assertions
hold; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
Shared structures (involution posets, class reports) are built once per
size and cached for the whole module.
"""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from invbruhat.bruhat import (
    PosetView,
    UniverseIndex,
    bits,
    bruhat_leq,
    poset_view,
)
from invbruhat.chains import (
    increasing_chain,
    decreasing_chain,
    is_strictly_decreasing,
    is_weakly_increasing,
    iter_saturated_chains,
)
from invbruhat.elshell import (
    LabelOrder,
    el_check,
    find_escaping_interval,
    fpf_decreasing_chain,
    labelled_class_view,
)
from invbruhat.fpclasses import (
    FixedPointSpec,
    all_specs,
    enumerate_class,
    gapped_counts_witness,
    in_class,
    is_graded_bruteforce,
    is_graded_rule,
    isolated_count_witness,
    make_spec,
    minimal_elements,
    rank_in_involutions,
    rank_value,
    top_element,
)
from invbruhat.moves import cover_map, covers
from invbruhat.perms import (
    enumerate_involutions,
    format_perm,
    num_fixed_points,
    parse_perm,
    statistics,
)

GOLDEN = Path(__file__).parent / "golden"


def announce(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS - {text}")


@lru_cache(maxsize=None)
def involution_index(n: int) -> UniverseIndex:
    return UniverseIndex(enumerate_involutions(n))


@lru_cache(maxsize=None)
def involution_view(n: int) -> PosetView:
    idx = involution_index(n)
    return PosetView(elements=idx.elements, covers=tuple(idx.cover_pairs()))


@lru_cache(maxsize=None)
def class_report(spec: FixedPointSpec):
    view = poset_view(enumerate_class(spec))
    return view, is_graded_bruteforce(view)


def comparable_pairs(idx: UniverseIndex, elements=None):
    pool = None if elements is None else {idx.index[p] for p in elements}
    for i, p in enumerate(idx.elements):
        if pool is not None and i not in pool:
            continue
        for j in bits(idx.up[i]):
            if pool is None or j in pool:
                yield p, idx.elements[j]


def test_c01_involution_order_graded_with_rank_formula():
    for n in range(1, 9):
        view = involution_view(n)
        report = is_graded_bruteforce(view)
        assert report.graded, n
        for p, rank in zip(view.elements, report.ranks):
            inv, exc, _ = statistics(p)
            assert rank == (inv + exc) // 2, (n, p)
    assert len(enumerate_involutions(8)) == 764
    announce(1, "involution order graded for n <= 8; brute-force rank == "
                "(inv+exc)/2 on all 764 elements at n = 8")


def test_c02_covering_moves_equal_order_covers():
    for n in range(1, 9):
        move_edges = {
            (p, q) for p in enumerate_involutions(n) for _, q in covers(p)
        }
        view = involution_view(n)
        order_edges = {(view.elements[i], view.elements[j])
                       for i, j in view.covers}
        assert move_edges == order_edges, n
    announce(2, "covering moves equal order-theoretic covers exactly, n <= 8")


def test_c03_chain_uniqueness_and_lex_minimality():
    checked = 0
    for n in range(2, 7):
        idx = involution_index(n)
        for p, q in comparable_pairs(idx):
            rising = []
            falling = []
            weak_falling = 0
            least = None
            for chain in iter_saturated_chains(p, q):
                if is_weakly_increasing(chain.labels):
                    rising.append(chain)
                if is_strictly_decreasing(chain.labels):
                    falling.append(chain)
                if all(a >= b for a, b in zip(chain.labels, chain.labels[1:])):
                    weak_falling += 1
                if least is None or chain.labels < least:
                    least = chain.labels
            assert len(rising) == 1, (p, q)
            assert len(falling) == 1, (p, q)
            assert weak_falling == 1, (p, q)
            assert increasing_chain(p, q) == rising[0], (p, q)
            assert decreasing_chain(p, q) == falling[0], (p, q)
            assert rising[0].labels == least, (p, q)
            checked += 1
    announce(3, f"exactly one increasing and one decreasing chain in all "
                f"{checked} intervals with n <= 6; greedy == oracle; "
                f"increasing chain lex-minimal")


def test_c04_gradedness_rule_and_rank_formula():
    specs = 0
    for n in range(4, 9):
        identity_word = tuple(range(1, n + 1))
        for spec in all_specs(n):
            view, report = class_report(spec)
            assert is_graded_rule(spec) == report.graded, spec
            specs += 1
            if not report.graded or spec.counts == {n}:
                continue
            a_tilde = spec.a_tilde
            bump = 1 if n in spec.counts else 0
            for p, rank in zip(view.elements, report.ranks):
                assert rank == rank_value(p, spec), (spec, p)
                if p != identity_word:
                    inv, exc, _ = statistics(p)
                    assert rank == (inv + exc - n + a_tilde) // 2 + bump
    announce(4, f"gradedness rule agrees with brute force on all {specs} "
                f"count sets for n in 4..8; rank formula matches brute-force "
                f"ranks (identity pinned at rank 0 where present)")


def test_c05_isolated_count_witness_reproduction():
    witness = isolated_count_witness(6, 2)
    assert [format_perm(p) for p in witness.long_chain] == \
        ["124365", "143265", "423165", "426153"]
    assert [format_perm(p) for p in witness.short_chain] == \
        ["124365", "216453", "426153"]
    assert len(witness.long_chain) - 1 == 3
    assert len(witness.short_chain) - 1 == 2
    announce(5, "isolated-count witness at (6, 2) reproduces both chains "
                "word for word (lengths 3 and 2)")


def test_c06_gapped_counts_witness_reproduction():
    witness = gapped_counts_witness(6, 2, 1)
    assert format_perm(witness.bottom) == "123465"
    assert format_perm(witness.top) == "623451"
    labels = [
        cover_map(x)[y]
        for x, y in zip(witness.long_chain, witness.long_chain[1:])
    ]
    assert labels == [(4, 5), (3, 4), (2, 3), (1, 2)]
    assert len(witness.long_chain) - 1 == 4
    assert format_perm(witness.short_chain[1]) == "214365"
    assert [num_fixed_points(p) for p in witness.short_chain] == [4, 0, 4]
    announce(6, "gapped-count witness at k = 6 realizes labels "
                "(4,5),(3,4),(2,3),(1,2) and the 4,0,4 short chain")


def test_c07_el_labellings():
    for n in (2, 4, 6, 8):
        view = labelled_class_view(make_spec(n, {0}))
        report = el_check(view, LabelOrder.REVERSED_LEX)
        assert report.is_el, n
    assert len(enumerate_class(make_spec(8, {0}))) == 105
    for n in range(2, 9):
        spec = make_spec(n, set(range(n % 2, n + 1, 2)))
        view = labelled_class_view(spec)
        report = el_check(view, LabelOrder.STANDARD_LEX)
        assert report.is_el, n
    announce(7, "reversed-lex labelling is EL on the fixed-point-free class "
                "for n in {2,4,6,8} (105 elements at n = 8); standard-lex "
                "is EL on the involution order for n <= 8")


def test_c08_decreasing_chains_stay_fixed_point_free():
    pairs = 0
    for n in (2, 4, 6, 8):
        fpf = enumerate_class(make_spec(n, {0}))
        idx = involution_index(n)
        for p, q in comparable_pairs(idx, fpf):
            holds, _ = fpf_decreasing_chain(p, q)
            assert holds, (p, q)
            pairs += 1
    announce(8, f"decreasing chains of all {pairs} comparable "
                f"fixed-point-free pairs (n <= 8) stay fixed-point-free")


def is_adjacent_pairing(p) -> bool:
    i = 1
    while i <= len(p):
        if p[i - 1] == i:
            i += 1
        elif p[i - 1] == i + 1 and p[i] == i:
            i += 2
        else:
            return False
    return True


def test_c09_extremal_elements():
    for n in range(1, 9):
        for spec in all_specs(n):
            top = top_element(spec)
            inv, exc, _ = statistics(top)
            a = spec.a_min
            assert inv == (n - a) * (n + a - 1) // 2, spec
            assert exc == (n - a) // 2, spec
            elements = enumerate_class(spec)
            assert top in elements
            for p in elements:
                assert bruhat_leq(p, top), (spec, p)
                if p != top:
                    assert not bruhat_leq(top, p), (spec, p)
            a_max = max(spec.counts)
            lows = minimal_elements(spec)
            for p in lows:
                assert rank_in_involutions(p) == (n - a_max) // 2, (spec, p)
                assert is_adjacent_pairing(p), (spec, p)
                assert num_fixed_points(p) == a_max, (spec, p)
    announce(9, "every class for n <= 8 has its constructed unique maximum "
                "with the closed-form statistics; minimal elements are "
                "adjacent-transposition products at ambient rank "
                "(n - max A)/2")


def test_c10_chain_entry_property():
    shapes = 0
    pairs = 0
    for n in range(2, 8):
        values = list(range(n % 2, n + 1, 2))
        specs = [make_spec(n, range(n % 2, a + 1, 2)) for a in values]
        specs += [make_spec(n, range(a, n + 1, 2)) for a in values]
        specs += [make_spec(n, range(a1, a2 + 1, 2))
                  for k, a1 in enumerate(values) for a2 in values[k + 1:]]
        idx = involution_index(n)
        for spec in specs:
            shapes += 1
            members = set(enumerate_class(spec))
            for p, q in comparable_pairs(idx, members):
                up_entry = increasing_chain(p, q).elements[1]
                down_entry = decreasing_chain(p, q).elements[-2]
                assert up_entry in members or down_entry in members, (spec, p, q)
                pairs += 1
    announce(10, f"chain-entry property holds for all {pairs} comparable "
                 f"pairs across {shapes} bounded/at-least/between shapes, "
                 f"n <= 7")


def test_c11_poset_rank_audit():
    for n in range(4, 9):
        for spec in all_specs(n):
            _, report = class_report(spec)
            if not report.graded or spec.counts == {n}:
                continue
            height = max(report.ranks)
            assert rank_value(top_element(spec), spec) == height, spec
    for n, counts, rank in ((6, {0}, 6), (4, {2}, 2)):
        spec = make_spec(n, counts)
        assert rank_value(top_element(spec), spec) == rank
    n, spec = 6, make_spec(6, {0})
    displayed = Fraction(
        Fraction(n - spec.a_min, 2) * (n + spec.a_min - 1) - n + spec.a_tilde, 2
    )
    assert displayed == Fraction(9, 2)
    assert displayed != rank_value(top_element(spec), spec)
    announce(11, "poset rank computed as rank_value(top) equals brute-force "
                 "height for every graded case, n in 4..8; note: the "
                 "displayed closed-form poset-rank expression evaluates to "
                 "9/2 at (n, A) = (6, {0}) and is therefore not used")


def test_c12_escaping_intervals_for_all_non_fpf_classes():
    full = frozenset({0, 2, 4, 6})
    found = 0
    for spec in all_specs(6):
        if spec.counts in (frozenset({0}), frozenset({6})):
            continue
        if spec.counts in (full, full - {6}):
            continue  # the whole involution order
        result = find_escaping_interval(spec)
        assert result is not None, spec
        p, q, kind = result
        chain = increasing_chain(p, q) if kind == "increasing" \
            else decreasing_chain(p, q)
        assert len(chain) == 2
        assert in_class(p, spec) and in_class(q, spec)
        assert not in_class(chain.elements[1], spec)
        found += 1
    assert found == 11
    announce(12, "escaping length-2 intervals found and re-verified for all "
                 "11 applicable count sets at n = 6")


def test_c13_cli_golden_files():
    import io

    from invbruhat.cli import build_parser

    cases = [
        (["hasse", "--n", "4", "--classes", "0"], "hasse_F4_0.dot"),
        (["hasse", "--n", "4", "--classes", "2"], "hasse_F4_2.dot"),
        (["hasse", "--n", "4", "--all-classes"], "hasse_I4.dot"),
        (["counterexample", "--prop", "19", "--n", "6", "--i", "2"],
         "counterexample_19.json"),
        (["counterexample", "--prop", "20", "--n", "6", "--i", "2",
          "--m", "1"], "counterexample_20.json"),
        (["chains", "--n", "6", "--from", "124365", "--to", "426153",
          "--kind", "all"], "chains_124365_426153.json"),
        (["chains", "--n", "4", "--from", "2143", "--to", "2143",
          "--kind", "all"], "chains_2143_2143.json"),
    ]
    parser = build_parser()
    for argv, golden in cases:
        args = parser.parse_args(argv)
        out = io.StringIO()
        assert args.handler(args, out) == 0
        assert out.getvalue() == (GOLDEN / golden).read_text(), golden
    announce(13, "CLI hasse, counterexample and chains outputs are "
                 "byte-identical to their golden files")
