"""
Command-line front end.

Subcommands: ``enumerate`` (class elements as line-delimited records),
``hasse`` (covering graph as DOT text), ``check-graded`` (closed-form
rule vs. brute force), ``chains`` (saturated chains of an interval),
``el-verify`` (EL-labelling check), and ``counterexample`` (the two
non-gradedness witness constructions, selected as 19 or 20).

All machine-readable output goes to stdout and is byte-deterministic
for fixed arguments; timing lines go to stderr.  Exit status is 0 when
every embedded verification passes, 1 when one fails, and 2 for bad
usage or violated preconditions.  Each subparser sets its size cap
(``MAX_VIEW_N`` where a class's order view is built, else ``MAX_N``),
and ``main`` checks ``--n`` against it before reading anything else, so
every size error reads ``<command> supports sizes 1..<cap>``.
``el-verify`` prints the ValueError of ``elshell``'s EL preconditions
(unlabelled covers first) as a ``not-applicable`` report, exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .chains import (
    ChainGuardExceeded,
    all_saturated_chains,
    decreasing_chain,
    increasing_chain,
)
from .bruhat import bruhat_leq
from .elshell import LabelOrder, el_check, labelled_class_view
from .fpclasses import (
    MAX_VIEW_N,
    FixedPointSpec,
    all_specs,
    class_view,
    enumerate_class,
    gapped_counts_witness,
    is_graded_bruteforce,
    is_graded_rule,
    isolated_count_witness,
    make_spec,
    rank_in_involutions,
    rank_value,
)
from .perms import (MAX_N, Perm, format_perm, is_involution,
                    num_fixed_points, parse_decimal, parse_perm, statistics)


class UsageError(Exception):
    pass


def _parse_counts(args, n: int) -> range | frozenset[int]:
    if args.all_classes:
        return range(n % 2, n + 1, 2)  # make_spec checks n before reading it
    if args.classes is None:
        raise UsageError("one of --classes or --all-classes is required")
    try:
        return frozenset(map(parse_decimal, args.classes.split(",")))
    except ValueError:
        raise UsageError(f"bad --classes value: {args.classes!r}") from None


def _spec_from_args(args) -> FixedPointSpec:
    try:
        return make_spec(args.n, _parse_counts(args, args.n))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _record(p: Perm, spec: FixedPointSpec, graded: bool) -> dict:
    inv, exc, fixed = statistics(p)
    return {
        "word": format_perm(p),
        "n": spec.n,
        "fixed_points": len(fixed),
        "inv": inv,
        "exc": exc,
        "rank_in": rank_in_involutions(p),
        "rank_class": rank_value(p, spec) if graded else None,
    }


def cmd_enumerate(args, out) -> int:
    spec = _spec_from_args(args)
    graded = is_graded_rule(spec)
    records = [_record(p, spec, graded) for p in enumerate_class(spec)]
    if args.format == "tsv":
        fields = ["word", "n", "fixed_points", "inv", "exc", "rank_in",
                  "rank_class"]
        out.write("\t".join(fields) + "\n")
        for rec in records:
            out.write("\t".join(
                "" if rec[f] is None else str(rec[f]) for f in fields) + "\n")
    else:
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


def cmd_hasse(args, out) -> int:
    spec = _spec_from_args(args)
    view = labelled_class_view(spec)
    name = spec.describe()
    out.write(f'digraph "{name}" {{\n')
    out.write("  rankdir=BT;\n")
    words = [format_perm(p) for p in view.elements]
    out.writelines(f'  "{word}";\n' for word in words)
    for (i, j), label in zip(view.covers, view.labels):
        attr = f' [label="({label[0]},{label[1]})"]' if label else ""
        out.write(f'  "{words[i]}" -> "{words[j]}"{attr};\n')
    out.write("}\n")
    return 0


def cmd_check_graded(args, out) -> int:
    specs = all_specs(args.n) if args.all_classes else [_spec_from_args(args)]
    # Over all classes only the count sets A with n are built: the
    # identity is the bottom of each, and dropping it gives the view of
    # A - {n}, so a pair costs one peel and two views are held at once.
    graded = {}
    for spec in specs:
        if args.all_classes and args.n not in spec.counts:
            continue
        view = class_view(spec)
        graded[spec.counts] = is_graded_bruteforce(view).graded
        if args.all_classes and spec.counts != {args.n}:
            graded[spec.counts - {args.n}] = is_graded_bruteforce(
                view.drop_bottom()).graded
    results = []
    all_agree = True
    for spec in specs:
        rule = is_graded_rule(spec)
        brute = graded[spec.counts]
        agree = rule == brute
        all_agree &= agree
        results.append({
            "classes": sorted(spec.counts),
            "graded_rule": rule,
            "graded_bruteforce": brute,
            "agree": agree,
        })
    report = {
        "command": "check-graded",
        "n": args.n,
        "results": results,
        "status": "pass" if all_agree else "fail",
    }
    out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if all_agree else 1


def _chain_payload(elements, labels=None) -> dict:
    payload = {
        "words": [format_perm(p) for p in elements],
        "fixed_points": [num_fixed_points(p) for p in elements],
        "length": len(elements) - 1,
    }
    if labels is not None:
        payload["labels"] = [list(l) for l in labels]
    return payload


def _all_text(chains) -> str:
    """The ``"all"`` entry of a chains report, with no trailing comma, as
    ``json.dumps(report, sort_keys=True, indent=2)`` prints it.

    Each chain payload sits at depth 2, its lists' items at depth 3.  The
    lines of each element and the block of each label are made once.
    """
    item = " " * 8
    words, fixed, steps = {}, {}, {}
    blocks = []
    for chain in chains:
        for x in chain.elements:
            if x not in words:
                words[x] = item + json.dumps(format_perm(x))
                fixed[x] = f"{item}{num_fixed_points(x)}"
        for label in chain.labels:
            if label not in steps:
                i, j = label
                steps[label] = f"{item}[\n{item}  {i},\n{item}  {j}\n{item}]"
        if chain.labels:
            labels = ("[\n" + ",\n".join(map(steps.__getitem__, chain.labels))
                      + "\n      ]")
        else:
            labels = "[]"
        blocks.append(
            '    {\n      "fixed_points": [\n'
            + ",\n".join(map(fixed.__getitem__, chain.elements))
            + f'\n      ],\n      "labels": {labels},\n'
            f'      "length": {len(chain.labels)},\n      "words": [\n'
            + ",\n".join(map(words.__getitem__, chain.elements))
            + "\n      ]\n    }")
    return '  "all": [\n' + ",\n".join(blocks) + "\n  ]"


def cmd_chains(args, out) -> int:
    try:
        p = parse_perm(getattr(args, "from"))
        q = parse_perm(args.to)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if len(p) != args.n or len(q) != args.n:
        raise UsageError("--from/--to words must have size --n")
    for w in (p, q):
        if not is_involution(w):
            raise UsageError(f"{format_perm(w)} is not an involution")
    if not bruhat_leq(p, q):
        raise UsageError(f"{format_perm(p)} is not below {format_perm(q)}")
    report = {
        "command": "chains",
        "n": args.n,
        "from": format_perm(p),
        "to": format_perm(q),
        "kind": args.kind,
        "status": "pass",
    }
    if args.kind in ("increasing", "all"):
        chain = increasing_chain(p, q)
        report["increasing"] = _chain_payload(chain.elements, chain.labels)
    if args.kind in ("decreasing", "all"):
        chain = decreasing_chain(p, q)
        report["decreasing"] = _chain_payload(chain.elements, chain.labels)
    if args.kind != "all":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return 0
    try:
        chains = all_saturated_chains(p, q)
    except ChainGuardExceeded as exc:
        raise UsageError(str(exc)) from None
    report["count"] = len(chains)
    rest = json.dumps(report, sort_keys=True, indent=2)
    # "all" sorts before every other key, so its entry opens the object.
    out.write("{\n" + _all_text(chains) + ",\n" + rest[2:] + "\n")
    return 0


def cmd_el_verify(args, out) -> int:
    spec = _spec_from_args(args)
    if args.order == "auto":
        order = LabelOrder.REVERSED_LEX if spec.counts == {0} \
            else LabelOrder.STANDARD_LEX
    else:
        order = LabelOrder(args.order)
    view = labelled_class_view(spec)
    report = {
        "command": "el-verify",
        "n": args.n,
        "classes": sorted(spec.counts),
        "order": order.value,
    }
    try:
        result = el_check(view, order)
    except ValueError as exc:
        report["status"] = "not-applicable"
        report["reason"] = str(exc)
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return 0
    report["is_el"] = result.is_el
    report["violations"] = [
        {"from": format_perm(a), "to": format_perm(b), "reason": why}
        for a, b, why in result.violations
    ]
    report["status"] = "pass" if result.is_el else "fail"
    out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if result.is_el else 1


def cmd_counterexample(args, out) -> int:
    try:
        if args.prop == 19:
            if args.m is not None:
                raise UsageError("--m applies only to --prop 20")
            witness = isolated_count_witness(args.n, args.i)
        else:
            if args.m is None:
                raise UsageError("--prop 20 requires --m")
            witness = gapped_counts_witness(args.n, args.i, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = {
        "command": "counterexample",
        "prop": args.prop,
        "n": args.n,
        "i": args.i,
        "classes": sorted(witness.spec.counts),
        "bottom": format_perm(witness.bottom),
        "top": format_perm(witness.top),
        "long_chain": _chain_payload(witness.long_chain),
        "short_chain": _chain_payload(witness.short_chain),
        "verified": True,  # witness construction re-checks every cover
        "status": "pass",
    }
    if args.prop == 20:
        report["m"] = args.m
    out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="invbruhat",
        description="Bruhat order on involutions: enumeration, covering "
                    "graphs, gradedness and EL-labelling checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_flags(sp):
        sp.add_argument("--n", type=parse_decimal, required=True,
                        help="word size")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--classes",
                           help="comma-separated fixed-point counts, e.g. 0,2")
        group.add_argument("--all-classes", action="store_true",
                           help="every fixed-point count of n's parity")

    sp = sub.add_parser("enumerate", help="list class elements as records")
    add_class_flags(sp)
    sp.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    sp.set_defaults(handler=cmd_enumerate, cap=MAX_N)

    sp = sub.add_parser("hasse", help="covering graph in DOT format")
    add_class_flags(sp)
    sp.set_defaults(handler=cmd_hasse, cap=MAX_VIEW_N)

    sp = sub.add_parser("check-graded",
                        help="compare gradedness rule with brute force")
    add_class_flags(sp)
    sp.set_defaults(handler=cmd_check_graded, cap=MAX_VIEW_N)

    sp = sub.add_parser("chains", help="saturated chains of an interval")
    sp.add_argument("--n", type=parse_decimal, required=True)
    sp.add_argument("--from", required=True, help="bottom word")
    sp.add_argument("--to", required=True, help="top word")
    sp.add_argument("--kind", choices=["increasing", "decreasing", "all"],
                    default="all")
    sp.set_defaults(handler=cmd_chains, cap=MAX_N)

    sp = sub.add_parser("el-verify", help="EL-labelling check for a class")
    add_class_flags(sp)
    sp.add_argument("--order",
                    choices=["auto", "standard-lex", "reversed-lex"],
                    default="auto",
                    help="label order; auto picks reversed-lex for the "
                         "fixed-point-free class")
    sp.set_defaults(handler=cmd_el_verify, cap=MAX_VIEW_N)

    sp = sub.add_parser("counterexample",
                        help="verified unequal-length chain constructions")
    sp.add_argument("--prop", type=parse_decimal, choices=[19, 20],
                    required=True,
                    help="19: isolated count; 20: gapped count set")
    sp.add_argument("--n", type=parse_decimal, required=True)
    sp.add_argument("--i", type=parse_decimal, required=True)
    sp.add_argument("--m", type=parse_decimal)
    sp.set_defaults(handler=cmd_counterexample, cap=MAX_N)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if not 1 <= args.n <= args.cap:
            raise UsageError(f"{args.command} supports sizes 1..{args.cap}")
        code = args.handler(args, sys.stdout)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # What is still buffered goes to the null device, so that the
        # interpreter's own flush at exit raises nothing more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before all output was written",
              file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
