"""Output checks, run by the measured process outside its timed region.

Each check takes a query's argv and the stdout text of a call that
exited 0.  It returns a one-line reason when the output is wrong (None
when it is right) and, for a chains ``all`` report, the number of chains
listed, which the benchmark process compares with its own count.
"""

from __future__ import annotations

import hashlib
import json

import queries

# SHA-256 of the stdout of ``check-graded --n 8 --all-classes``, which the
# CLI promises is byte-deterministic.
GRADED_N8_STDOUT_SHA256 = \
    "87cdbc46b035ea8ad4cf71b8e1ae7297303d874fa02d0e128a5bf7ce605d4867"


def check_graded(argv: list[str], text: str) -> tuple[str | None, None]:
    report = json.loads(text)
    results = report["results"]
    if report["status"] != "pass":
        return f"status {report['status']!r}", None
    if len(results) != 31 or not all(r["agree"] for r in results):
        return "expected 31 agreeing count sets", None
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != GRADED_N8_STDOUT_SHA256:
        return f"stdout digest {digest} differs from the reference", None
    return None, None


def check_el(argv: list[str], text: str) -> tuple[str | None, None]:
    report = json.loads(text)
    if report["status"] != "pass" or report["is_el"] is not True:
        return f"status {report['status']!r}", None
    if report["violations"]:
        return f"{len(report['violations'])} violations", None
    return None, None


def _chain_problem(chain: dict, bottom: str, top: str) -> str | None:
    words, labels = chain["words"], chain["labels"]
    if words[0] != bottom or words[-1] != top:
        return f"chain runs {words[0]}..{words[-1]}, not {bottom}..{top}"
    length = queries.rank(top) - queries.rank(bottom)
    if not chain["length"] == len(labels) == len(words) - 1 == length:
        return f"chain length {chain['length']} is not the rank difference {length}"
    return None


def _chains_problem(report: dict, bottom: str, top: str, kind: str) -> str | None:
    if (report["status"], report["from"], report["to"], report["kind"]) \
            != ("pass", bottom, top, kind):
        return "report does not echo the query"
    if kind in ("increasing", "all"):
        labels = report["increasing"]["labels"]
        if any(a > b for a, b in zip(labels, labels[1:])):
            return "increasing labels are not weakly increasing"
        problem = _chain_problem(report["increasing"], bottom, top)
        if problem:
            return problem
    if kind in ("decreasing", "all"):
        labels = report["decreasing"]["labels"]
        if any(a <= b for a, b in zip(labels, labels[1:])):
            return "decreasing labels are not strictly decreasing"
        problem = _chain_problem(report["decreasing"], bottom, top)
        if problem:
            return problem
    if kind == "all":
        if report["count"] != len(report["all"]):
            return f"count {report['count']} but {len(report['all'])} chains listed"
        for chain in report["all"]:
            problem = _chain_problem(chain, bottom, top)
            if problem:
                return problem
    return None


def check_chains(argv: list[str], text: str) -> tuple[str | None, int | None]:
    report = json.loads(text)
    bottom, top, kind = argv[4], argv[6], argv[8]
    listed = len(report["all"]) if kind == "all" else None
    return _chains_problem(report, bottom, top, kind), listed


CHECKS = {"graded": check_graded, "el": check_el, "chains": check_chains}
