"""Benchmark of the invbruhat package, driven from outside through its CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload graded-n8 --seed 1 --seconds 35 --trace 0

Workloads (why each was chosen: ``perfbench/BASELINE.md``):

* ``graded-n8``: ``check-graded --n 8 --all-classes``, one fresh process
  per run of the command; the order index (``bruhat.poset_view``) does
  most of the work.
* ``el-n8``: ``el-verify --n 8 --all-classes``, one fresh process per run
  of the command; ``elshell.el_check`` does most of the work.
* ``chains-n8``: a single-client closed loop of 1,500 ``chains`` queries
  per pass, each through ``invbruhat.cli.main`` in one process, from a
  query list made from the seed in this (unmeasured) process.

Every pass runs in a fresh interpreter (``perfbench/child.py``), and a
pass counts as one operation per query (one per CLI workload pass).
With ``--trace 0`` passes of the same queries repeat while another fits
in ``--seconds``; each query's latency is its median over the passes,
``wall_s`` is their sum and ``peak_rss_mb`` the median over passes, and
``setup_s`` is the median over the passes and ten set-up-only launches.
Times are scaled to a reference interpreter speed measured in the same
process (``REFERENCE_PROBE_S``); stderr also shows the raw times.
With ``--trace 1`` one untraced pass and one traced pass run, and the
per-layer metrics come from the traced one.  The last line of stdout is
the JSON result; a table of the same metrics, with the error rate, goes
to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import queries

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150
# Times are scaled to the interpreter speed at which one ``child.probe``
# slice takes this long, using the probe time measured in the same
# process (see child.py): raw times here drift by a quarter within
# minutes on a shared host, scaled ones by a few percent.
REFERENCE_PROBE_S = 100e-6
# A query is scaled by the mean of the probe samples taken while it ran
# or within this many seconds of it: slow-downs last seconds.
PROBE_WINDOW_S = 0.25

CLI_WORKLOADS = {
    "graded-n8": (["check-graded", "--n", "8", "--all-classes"], "graded"),
    "el-n8": (["el-verify", "--n", "8", "--all-classes"], "el"),
}
WORKLOADS = (*CLI_WORKLOADS, "chains-n8")


class BenchError(RuntimeError):
    pass


def spawn(src: Path, job: dict) -> dict:
    """Run one child pass and return its report plus its peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(src))
    # Set-up is timed with cached bytecode, as for an installed package,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), repr(launched)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 on this pid alone: RUSAGE_CHILDREN would report the
        # largest child waited on so far instead of this one.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child pass exited with {proc.returncode}")
    report = json.loads(out)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
    report["wall_s"] = sum(report.get("latencies_s", ()))
    return report


def run_pass(src: Path, job: dict, expected: list) -> dict:
    """One pass, with each ``all`` query's chain count checked against the
    benchmark's own count of the interval."""
    report = spawn(src, job)
    report["wrong"] += [
        f"{' '.join(argv)}: {got} chains listed, expected {want}"
        for argv, got, want in zip(job["argvs"], report["listed"], expected)
        if got is not None and got != want]
    return report


def failures(report: dict) -> int:
    """Queries of a pass that raised, exited nonzero or printed wrong output."""
    return sum(report["errors"].values()) + len(report["wrong"])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def scaled_latencies(report: dict) -> list[float]:
    """The pass's query latencies at the reference speed."""
    times = [t for t, _ in report["probe_samples"]]
    probes = [s for _, s in report["probe_samples"]] or [report["setup_probe_s"]]
    out = []
    for start, took in zip(report["starts_s"], report["latencies_s"]):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + took + PROBE_WINDOW_S)
        near = probes[lo:hi] or probes[min(lo, len(probes) - 1):][:1]
        out.append(took * REFERENCE_PROBE_S / statistics.mean(near))
    return out


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, and the raw wall time.

    Every pass runs the same queries.  Each query's latency is its median
    over the passes, which drops the slow-downs that hit one pass only.
    """
    per_query = [statistics.median(ts)
                 for ts in zip(*(scaled_latencies(p) for p in passes))]
    raw_wall = sum(statistics.median(ts)
                   for ts in zip(*(p["latencies_s"] for p in passes)))
    wall = sum(per_query)
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(failures(p) for p in passes)
    setup = statistics.median(
        r["setup_s"] * REFERENCE_PROBE_S / r["setup_probe_s"] for r in setups)
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
        "queries_per_s": (len(per_query) / wall, "1/s"),
        "query_p50_ms": (1000 * statistics.median(per_query), "ms"),
        "query_p99_ms": (1000 * percentile(per_query, 0.99), "ms"),
    }, {
        "raw_wall_s": (raw_wall, "s"),
        "raw_setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
    }


def per_layer(base: dict, traced: dict) -> dict:
    spans, counts, caches = traced["spans"], traced["counts"], traced["caches"]
    point = [traced["by_kind"].get(k, {"main_s": 0.0, "self_s": 0.0})
             for k in ("increasing", "decreasing")]

    def total(name):
        return spans[name]["total_s"], "s"

    def calls(name):
        return spans[name]["calls"], "count"

    def count(name):
        return counts.get(name, 0), "count"

    return {
        "perms.enumerate_s": total("perms.enumerate"),
        "perms.enumerate_calls": calls("perms.enumerate"),
        "bruhat.poset_view_s": total("bruhat.poset_view"),
        "bruhat.poset_view_calls": calls("bruhat.poset_view"),
        "bruhat.view_elements": count("bruhat.view_elements"),
        "bruhat.view_covers": count("bruhat.view_covers"),
        "bruhat.leq_calls": calls("bruhat.leq"),
        "bruhat.leq_s": total("bruhat.leq"),
        "bruhat.leq_cache_hits": (caches["bruhat.leq"]["hits"], "count"),
        "bruhat.leq_cache_misses": (caches["bruhat.leq"]["misses"], "count"),
        "bruhat.leq_cache_size": (caches["bruhat.leq"]["size"], "count"),
        "moves.covers_calls": calls("moves.covers"),
        "moves.covers_s": total("moves.covers"),
        "moves.covers_cache_misses": (caches["moves.covers"]["misses"], "count"),
        "moves.covers_cache_size": (caches["moves.covers"]["size"], "count"),
        "moves.cover_map_calls": calls("moves.cover_map"),
        "moves.cover_map_s": total("moves.cover_map"),
        "chains.increasing_s": total("chains.increasing"),
        "chains.decreasing_s": total("chains.decreasing"),
        "chains.all_s": total("chains.all"),
        "chains.chains_listed": count("chains.chains_listed"),
        "chains.guard_trips": count("chains.guard_trips"),
        "fpclasses.class_view_s": (spans["fpclasses.class_view"]["self_s"], "s"),
        "fpclasses.graded_bruteforce_s": total("fpclasses.graded_bruteforce"),
        "fpclasses.classes_checked": calls("fpclasses.class_view"),
        "elshell.label_view_s": (spans["elshell.label_view"]["self_s"], "s"),
        "elshell.el_check_s": total("elshell.el_check"),
        "elshell.el_check_calls": calls("elshell.el_check"),
        "elshell.violations": count("elshell.violations"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": (spans["cli.main"]["self_s"], "s"),
        "cli.point_main_s": (sum(k["main_s"] for k in point), "s"),
        "cli.point_self_s": (sum(k["self_s"] for k in point), "s"),
        "cli.stdout_bytes": (traced["stdout_bytes"], "count"),
        "cli.calls": calls("cli.main"),
        "cli.failed": (failures(traced), "count"),
        "trace.overhead_s": (traced["wall_s"] - base["wall_s"], "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn's cleanup kills the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = Path.cwd() / "src"
    if not (src / "invbruhat" / "cli.py").is_file():
        print(f"error: no package source at {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload in CLI_WORKLOADS:
        command, check = CLI_WORKLOADS[args.workload]
        argvs, expected = [command], [None]
    else:
        (argvs, expected), check = queries.chains_queries(args.seed), "chains"

    try:
        if args.trace:
            job = {"argvs": argvs, "check": check, "trace": False,
                   "probe": False}
            base = run_pass(src, job, expected)
            traced = run_pass(src, dict(job, trace=True), expected)
            passes = [base, traced]
            metrics, raw = per_layer(base, traced), {}
        else:
            bare = {"argvs": [], "check": check, "trace": False, "probe": False}
            spawn(src, bare)  # untimed: lets the interpreter cache bytecode
            setups = [spawn(src, bare) for _ in range(SETUP_PROBES)]
            job = {"argvs": argvs, "check": check, "trace": False, "probe": True}
            passes, started = [], time.monotonic()
            while True:
                pass_started = time.monotonic()
                passes.append(run_pass(src, job, expected))
                now = time.monotonic()
                if now - started + (now - pass_started) > args.seconds:
                    break
            metrics, raw = end_to_end(passes, setups + passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(failures(p) for p in passes)
    wrong = [w for p in passes for w in p["wrong"]]
    errors = sum((Counter(p["errors"]) for p in passes), Counter())
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"queries={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6f} errors={dict(errors)}",
          file=sys.stderr)
    for problem in wrong[:10]:
        print(f"wrong output: {problem}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"  {name:28s} {value:>16.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
