"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps each public function in ``LAYERS`` where it is
defined and at every ``invbruhat`` module attribute that holds it (the
modules import one another's functions by name), then asserts that no
module attribute still holds an unwrapped one, so no layer goes untimed
without notice.

Each call opens a span with its name, start time and parent (the span
on top of the stack).  When it closes, its duration is added to the
span's totals and to its parent's child time, so self time is the
span's duration minus its child spans.  Spans are folded into per-name
totals as they close instead of being kept one by one: chains-n8 makes
millions of ``bruhat_leq`` calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, span name) for every traced public function.
LAYERS = (
    ("perms", "enumerate_involutions", "perms.enumerate"),
    ("bruhat", "poset_view", "bruhat.poset_view"),
    ("bruhat", "bruhat_leq", "bruhat.leq"),
    ("moves", "covers", "moves.covers"),
    ("moves", "cover_map", "moves.cover_map"),
    ("chains", "increasing_chain", "chains.increasing"),
    ("chains", "decreasing_chain", "chains.decreasing"),
    ("chains", "all_saturated_chains", "chains.all"),
    ("fpclasses", "class_view", "fpclasses.class_view"),
    ("fpclasses", "is_graded_bruteforce", "fpclasses.graded_bruteforce"),
    ("elshell", "labelled_class_view", "elshell.label_view"),
    ("elshell", "el_check", "elshell.el_check"),
    ("cli", "main", "cli.main"),
)


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "invbruhat" or name.startswith("invbruhat.")]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []  # [name, child time] per open span
        self.guard_error: type[BaseException] | tuple = ()  # set by install

    def _wrap(self, name: str, fn):
        stack, calls = self._stack, self.calls
        total_s, self_s = self.total_s, self.self_s
        after = _RESULT_COUNTS.get(name)
        guard = self.guard_error if name == "chains.all" else ()
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except guard:
                self.counts["chains.guard_trips"] += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += took
                self_s[name] += took - span[1]
                if stack:
                    stack[-1][1] += took
            if after is not None:
                after(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` at every module holding it."""
        import invbruhat.chains
        import invbruhat.cli  # noqa: F401  (loads every package module)

        self.guard_error = invbruhat.chains.ChainGuardExceeded
        modules = _package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        wrappers = {}
        for module, attr, name in LAYERS:
            fn = getattr(by_name[f"invbruhat.{module}"], attr)
            self.originals[name] = fn
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        originals = {id(fn) for fn in self.originals.values()}
        unwrapped = [f"{mod.__name__}.{attr}" for mod in modules
                     for attr, value in vars(mod).items()
                     if id(value) in originals]
        if unwrapped:
            raise AssertionError(f"untraced layer functions: {unwrapped}")

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """``cache_info()`` of each traced function that has an lru_cache."""
        out = {}
        for name, fn in self.originals.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[name] = {"hits": info.hits, "misses": info.misses,
                             "size": info.currsize}
        return out


def _count_view(counts, view) -> None:
    counts["bruhat.view_elements"] += len(view.elements)
    counts["bruhat.view_covers"] += len(view.covers)


def _count_chains(counts, chains) -> None:
    counts["chains.chains_listed"] += len(chains)


def _count_violations(counts, report) -> None:
    counts["elshell.violations"] += len(report.violations)


_RESULT_COUNTS = {
    "bruhat.poset_view": _count_view,
    "chains.all": _count_chains,
    "elshell.el_check": _count_violations,
}
