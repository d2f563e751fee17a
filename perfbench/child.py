"""The measured process: one fresh interpreter per pass.

Usage: ``PYTHONPATH=src python3 perfbench/child.py <launch time>``, with
the job as JSON on stdin: ``{"argvs": [...], "check": ..., "trace": ...,
"probe": ...}``.  The launch time is the parent's ``time.monotonic()``
just before it started this process; set-up ends when ``invbruhat.cli``
is imported.  Each argv list goes through ``invbruhat.cli.main`` in this
process, with stdout captured, so the package's caches start empty and
warm up over the pass as they would for one long-lived caller.  The
report goes to stdout as one JSON object.

On a shared machine the interpreter's speed drifts by a quarter within
minutes as other tenants load the host.  So that the benchmark can
scale its times to one reference speed, this process times a fixed
slice of interpreter work right after set-up and, with ``"probe"`` set,
every ``PROBE_PERIOD_S`` while the queries run; the probe's own time is
left out of each query's latency.
"""

import sys
import time

LAUNCHED = float(sys.argv[1])
import invbruhat.cli  # noqa: E402  (set-up ends here)

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


PROBE_PERIOD_S = 0.05


def probe() -> float:
    """Seconds taken by a fixed slice of interpreter work.

    Arithmetic on cached small integers only: it allocates nothing, so
    the state of the heap the queries leave behind cannot change its time.
    """
    start = time.perf_counter()
    x = 0
    for _ in range(30):
        for j in range(100):
            x = (x + j) & 127
    return time.perf_counter() - start


class PeriodicProbe:
    """Runs ``probe`` from a SIGALRM handler every ``PROBE_PERIOD_S`` and
    keeps (start, seconds) of each sample."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent_s = 0.0  # probe time, including the handler's own

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, probe()))
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _kind(argv: list[str]) -> str:
    return argv[argv.index("--kind") + 1] if "--kind" in argv else argv[0]


def run(job: dict) -> dict:
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    main = invbruhat.cli.main
    check = checks.CHECKS[job["check"]]
    starts, latencies, listed, errors, wrong = [], [], [], defaultdict(int), []
    stdout_bytes = 0
    by_kind = defaultdict(lambda: {"main_s": 0.0, "self_s": 0.0})
    sampler = PeriodicProbe()
    with sampler if job["probe"] else contextlib.nullcontext():
        for argv in job["argvs"]:
            out = io.StringIO()
            before = (tracer.total_s["cli.main"], tracer.self_s["cli.main"]) \
                if tracer else None
            error, probed = None, sampler.spent_s
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code, error = exc.code, "SystemExit"
                except Exception as exc:  # a failed query; the pass goes on
                    code, error = None, type(exc).__name__
                took = time.perf_counter() - start
            starts.append(start)
            latencies.append(took - (sampler.spent_s - probed))
            if tracer:
                kind = by_kind[_kind(argv)]
                kind["main_s"] += tracer.total_s["cli.main"] - before[0]
                kind["self_s"] += tracer.self_s["cli.main"] - before[1]
            text = out.getvalue()
            stdout_bytes += len(text.encode())
            if error is None and code != 0:
                error = f"exit {code}"
            if error is not None:
                errors[error] += 1
                listed.append(None)
                continue
            try:
                problem, chains = check(argv, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem, chains = f"unreadable output: {exc!r}", None
            listed.append(chains)
            if problem:
                wrong.append(f"{' '.join(argv)}: {problem}")
    report = {
        "starts_s": starts,
        "latencies_s": latencies,
        "listed": listed,
        "errors": dict(errors),
        "wrong": wrong,
        "stdout_bytes": stdout_bytes,
        "probe_samples": sampler.samples,
    }
    if tracer:
        report["spans"] = {name: {"calls": tracer.calls[name],
                                  "total_s": tracer.total_s[name],
                                  "self_s": tracer.self_s[name]}
                           for name in tracer.originals}
        report["counts"] = dict(tracer.counts)
        report["caches"] = tracer.cache_stats()
        report["by_kind"] = dict(by_kind)
    return report


if __name__ == "__main__":
    setup_s = READY - LAUNCHED
    setup_probe_s = statistics.median(probe() for _ in range(21))
    job = json.load(sys.stdin)
    report = run(job) if job["argvs"] else {}
    report["setup_s"], report["setup_probe_s"] = setup_s, setup_probe_s
    json.dump(report, sys.stdout)
