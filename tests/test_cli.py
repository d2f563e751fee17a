import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from invbruhat.bruhat import UniverseIndex, bits
from invbruhat.chains import (
    DEFAULT_CHAIN_GUARD,
    decreasing_chain,
    increasing_chain,
    iter_saturated_chains,
)
from invbruhat.cli import _chain_payload, build_parser, main
from invbruhat.perms import enumerate_involutions, format_perm

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    code = args.handler(args, out)
    return code, out.getvalue()


@pytest.mark.parametrize("argv,golden", [
    (["hasse", "--n", "4", "--classes", "0"], "hasse_F4_0.dot"),
    (["hasse", "--n", "4", "--classes", "2"], "hasse_F4_2.dot"),
    (["hasse", "--n", "4", "--all-classes"], "hasse_I4.dot"),
    (["counterexample", "--prop", "19", "--n", "6", "--i", "2"],
     "counterexample_19.json"),
    (["counterexample", "--prop", "20", "--n", "6", "--i", "2", "--m", "1"],
     "counterexample_20.json"),
    # 6 of its 107 covers skip an ambient rank and carry no label
    (["hasse", "--n", "6", "--classes", "2"], "hasse_F6_2.dot"),
    (["chains", "--n", "6", "--from", "124365", "--to", "426153",
      "--kind", "all"], "chains_124365_426153.json"),
    # p == q: one chain of length 0, whose labels print as []
    (["chains", "--n", "4", "--from", "2143", "--to", "2143",
      "--kind", "all"], "chains_2143_2143.json"),
])
def test_golden_outputs(argv, golden):
    code, text = run_cli(argv)
    assert code == 0
    assert text == (GOLDEN / golden).read_text()


def test_output_is_deterministic():
    first = run_cli(["enumerate", "--n", "6", "--classes", "0,2"])
    second = run_cli(["enumerate", "--n", "6", "--classes", "0,2"])
    assert first == second


def test_enumerate_records():
    code, text = run_cli(["enumerate", "--n", "4", "--classes", "4"])
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    assert records == [{
        "word": "1234", "n": 4, "fixed_points": 4, "inv": 0, "exc": 0,
        "rank_in": 0, "rank_class": 0,
    }]
    code, text = run_cli(["enumerate", "--n", "4", "--classes", "0"])
    assert len(text.splitlines()) == 3
    code, text = run_cli(["enumerate", "--n", "6", "--classes", "2"])
    by_word = {json.loads(line)["word"]: json.loads(line)
               for line in text.splitlines()}
    assert by_word["426153"]["inv"] == 8
    assert by_word["426153"]["exc"] == 2
    assert by_word["426153"]["rank_class"] is None  # class not graded


def test_enumerate_tsv():
    code, text = run_cli(["enumerate", "--n", "4", "--classes", "0",
                          "--format", "tsv"])
    lines = text.splitlines()
    assert lines[0].split("\t") == ["word", "n", "fixed_points", "inv",
                                    "exc", "rank_in", "rank_class"]
    assert lines[1].split("\t") == ["2143", "4", "0", "2", "2", "2", "0"]


def test_check_graded_single_and_all():
    code, text = run_cli(["check-graded", "--n", "6", "--classes", "2"])
    assert code == 0
    report = json.loads(text)
    assert report["results"] == [{
        "classes": [2], "graded_rule": False, "graded_bruteforce": False,
        "agree": True,
    }]
    assert report["status"] == "pass"
    code, text = run_cli(["check-graded", "--n", "5", "--all-classes"])
    assert code == 0
    report = json.loads(text)
    assert len(report["results"]) == 7
    assert report["status"] == "pass"


def test_chains_command():
    code, text = run_cli(["chains", "--n", "6", "--from", "124365",
                          "--to", "426153", "--kind", "all"])
    assert code == 0
    report = json.loads(text)
    assert report["count"] == 6
    routes = {tuple(c["words"]) for c in report["all"]}
    assert ("124365", "143265", "423165", "426153") in routes
    assert ("124365", "126453", "216453", "426153") in routes
    assert report["increasing"]["labels"] == [[1, 2], [1, 3], [3, 5]]
    assert report["decreasing"]["labels"] == [[3, 5], [2, 4], [1, 2]]


def test_chains_incomparable_exits_with_usage_error(capsys):
    code = main(["chains", "--n", "4", "--from", "2143", "--to", "1234"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "13", "--classes", "1"],
    ["check-graded", "--n", "13", "--all-classes"],
    ["el-verify", "--n", "13", "--classes", "1"],
    ["hasse", "--n", "13", "--classes", "13"],
    ["hasse", "--n", "12", "--classes", "12"],
    ["check-graded", "--n", "12", "--classes", "12"],
    ["el-verify", "--n", "12", "--classes", "0"],
    ["check-graded", "--n", "0", "--all-classes"],
    ["chains", "--n", "4", "--from", "1234", "--to", "2314"],
    ["chains", "--n", "8", "--from", "12345678", "--to", "87654321",
     "--kind", "all"],
    # the size is checked before the witness is built
    ["counterexample", "--prop", "20", "--n", "200004", "--i", "2",
     "--m", "100000"],
    # only ASCII decimal digits, with no "_" separators, are integers
    ["check-graded", "--n", "8", "--classes", "0_2"],
    ["check-graded", "--n", "8", "--classes", "\uff12"],
    ["chains", "--n", "4", "--from", "\uff12\uff11\uff14\uff13",
     "--to", "4321"],
    ["chains", "--n", "10", "--from", "1,2,3,4,5,6,7,8,9,1_0",
     "--to", "10,9,8,7,6,5,4,3,2,1", "--kind", "increasing"],
    ["check-graded", "--n", "\uff18", "--all-classes"],
    ["counterexample", "--prop", "19", "--n", "1_0", "--i", "2"],
    ["counterexample", "--prop", "1_9", "--n", "10", "--i", "2"],
    ["counterexample", "--prop", "20", "--n", "10", "--i", "2",
     "--m", "\u0661"],
])
def test_precondition_errors_exit_2_without_output(argv, capsys):
    try:
        code, opening = main(argv), "error:"
    except SystemExit as exc:  # argparse's type check, after its usage line
        code, opening = exc.code, "usage:"
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(opening)


@pytest.mark.parametrize("command, n, rest, cap", [
    pytest.param("chains", n, ["--from", "1", "--to", "1"], 12,
                 id=f"chains-{n}") for n in (0, 13)
] + [
    pytest.param(command, n, ["--classes", "0"], 11, id=f"{command}-{n}")
    for command in ("hasse", "check-graded", "el-verify") for n in (-1, 0, 12)
] + [
    pytest.param(command, n, rest, 12, id=f"{command}-{n}")
    for command, rest in (("enumerate", ["--classes", "0"]),
                          ("counterexample", ["--prop", "19", "--i", "2"]))
    for n in (-1, 0, 13)
])
def test_size_errors_name_the_command_s_own_range(command, n, rest, cap,
                                                  capsys):
    """``--n`` is checked against the command's own range before anything
    else is read, with one message for every size outside it."""
    assert main([command, "--n", str(n), *rest]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) \
        == ("", f"error: {command} supports sizes 1..{cap}\n")


@pytest.mark.parametrize("argv,lines_read", [
    (["enumerate", "--n", "10", "--all-classes"], 1),
    (["hasse", "--n", "4", "--all-classes"], 0),  # reader closed first
])
def test_closed_stdout_exits_2_without_a_traceback(argv, lines_read):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end)
    if not lines_read:
        reader.close()  # before the process starts, so no write succeeds
    proc = subprocess.Popen([sys.executable, "-m", "invbruhat.cli", *argv],
                            stdout=write_end, stderr=subprocess.PIPE,
                            text=True, env=env)
    os.close(write_end)
    for _ in range(lines_read):
        assert reader.readline()
    reader.close()
    assert proc.wait(timeout=60) == 2
    err = proc.stderr.read()
    proc.stderr.close()
    assert err.startswith("error:")
    assert "Traceback" not in err and "Exception ignored" not in err


# Prints [exit code, stdout, stderr, peak RSS in KiB] of the command in its
# argv.  A process's peak RSS includes what it mapped before its exec, so
# the command is started from this small process, not from pytest's.
PEAK_RSS_RUNNER = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE, text=True)
out, err = proc.stdout.read(), proc.stderr.read()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), out, err,
                  usage.ru_maxrss]))
"""


def test_oversized_all_classes_exits_2_before_building_the_counts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_RUNNER, sys.executable, "-m",
         "invbruhat.cli", "enumerate", "--n", "4000000", "--all-classes"],
        capture_output=True, text=True, env=env, timeout=60)
    code, out, err, peak_kib = json.loads(proc.stdout)
    assert (code, out) == (2, "")
    assert err == "error: enumerate supports sizes 1..12\n"
    assert peak_kib < 40 * 1024  # the count range alone took 150 MB


# SHA-256 of the stdout of each command at n = 10 over all classes.
ALL_CLASSES_N10_DIGESTS = {
    "check-graded":
        "17e109ddfe6d4e2636c3aaea1a4bb71db8b67bc9f213f129dba95279a0662cdb",
    "el-verify":
        "b2ee9f04a2a09999e4d3616cc2396786239055b38ad8d5d096cddcdcc83fd3b3",
    "hasse":
        "a8a9564632edb69c17252f77fe4276efdeffb19080c62b73351eb35252b18b18",
}


@pytest.mark.slow
def test_all_classes_stdout_at_n10_matches_the_pinned_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, digest in ALL_CLASSES_N10_DIGESTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "invbruhat.cli", command, "--n", "10",
             "--all-classes"], capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, command
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, command


# SHA-256 of the stdout of check-graded --n 11 --all-classes: 63 classes,
# every one agreeing, 25 graded.
CHECK_GRADED_N11_DIGEST = \
    "3967408eefef7c630609e70a42562a0496f2ba1e26219fb0675ab568c5316e9c"


@pytest.mark.slow
def test_check_graded_stdout_at_n11_matches_the_pinned_digest():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "invbruhat.cli", "check-graded", "--n", "11",
         "--all-classes"], capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == CHECK_GRADED_N11_DIGEST


# SHA-256 of the stdout of commands on proper classes, whose labels are
# read from the whole order by position.
PROPER_CLASS_DIGESTS = {
    "hasse --n 10 --classes 2,6,10":
        "5a1c9b6199c41720c5d9a24f8afc1e7e20de651fe69044a4c422a77fd833417d",
    "el-verify --n 10 --classes 0,2":
        "27474c5bffc4a9e22d541724895661862d4a3042f2cb9b8635056bc754dd7f7e",
    "hasse --n 11 --classes 1,5,11":
        "c7a6ba404e2bb266c1fb2d28f0aab7c80064c1beb41d88cafc83189b8ad80bd3",
    "el-verify --n 11 --classes 1,3":
        "6d59ab3ddbd0b57043355c6eb8944581a9570e1b7826c5ec7beb0e8daca69e65",
}


@pytest.mark.slow
def test_proper_class_stdout_matches_the_pinned_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, digest in PROPER_CLASS_DIGESTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "invbruhat.cli", *command.split()],
            capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, command
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, command


# Exit status and SHA-256 of the stdout of el-verify at scale: standard-lex
# EL on the whole order at n = 11, reversed-lex EL on the fixed-point-free
# class at n = 10, and every standard-lex violation there (19,251,278 bytes).
EL_AT_SCALE_DIGESTS = {
    "el-verify --n 11 --all-classes": (
        0, "649d75a2001517a4324b184c19c1b96e15bb80f725f6e5d6a308cb417213b7a3"),
    "el-verify --n 10 --classes 0": (
        0, "7b7d287e312c2df870ab83bfb25a010df51b80d0c6a76c9c1a6f318fae61ee0f"),
    "el-verify --n 10 --classes 0 --order standard-lex": (
        1, "54a25e3ae7143dec6f618155efec9cd811b86fac167ba83fc61fb5f5ad183d39"),
}


@pytest.mark.slow
def test_el_verify_stdout_at_scale_matches_the_pinned_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command, (code, digest) in EL_AT_SCALE_DIGESTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "invbruhat.cli", *command.split()],
            capture_output=True, env=env, timeout=600)
        assert proc.returncode == code, command
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, command


def test_one_class_at_the_largest_sizes_completes():
    code, text = run_cli(["hasse", "--n", "10", "--classes", "10"])
    assert code == 0
    assert text == ('digraph "F_10^{10}" {\n  rankdir=BT;\n'
                    '  "1,2,3,4,5,6,7,8,9,10";\n}\n')
    code, text = run_cli(["enumerate", "--n", "12", "--classes", "12"])
    assert code == 0
    assert json.loads(text)["word"] == "1,2,3,4,5,6,7,8,9,10,11,12"
    code, text = run_cli(["el-verify", "--n", "10", "--classes", "0"])
    assert code == 0
    assert json.loads(text)["is_el"] is True
    code, text = run_cli(["check-graded", "--n", "10",
                          "--classes", "0,2,4,6,8,10"])
    assert code == 0
    assert json.loads(text)["status"] == "pass"


def test_el_verify_pass_fail_and_not_applicable():
    code, text = run_cli(["el-verify", "--n", "6", "--classes", "0"])
    assert code == 0
    report = json.loads(text)
    assert report["order"] == "reversed-lex"
    assert report["is_el"] is True and report["status"] == "pass"

    code, text = run_cli(["el-verify", "--n", "4", "--all-classes"])
    assert code == 0
    assert json.loads(text)["order"] == "standard-lex"

    code, text = run_cli(["el-verify", "--n", "6", "--classes", "2"])
    assert code == 0
    assert json.loads(text)["status"] == "not-applicable"

    code, text = run_cli(["el-verify", "--n", "6", "--classes", "0",
                          "--order", "standard-lex"])
    assert code == 1
    report = json.loads(text)
    assert report["is_el"] is False and report["violations"]


def test_counterexample_range_error(capsys):
    assert main(["counterexample", "--prop", "19", "--n", "6", "--i", "4"]) == 2
    assert main(["counterexample", "--prop", "20", "--n", "6", "--i", "2"]) == 2
    assert main(["counterexample", "--prop", "19", "--n", "6", "--i", "2",
                 "--m", "1"]) == 2


def test_classes_flag_validation(capsys):
    assert main(["enumerate", "--n", "6"]) == 2
    assert main(["enumerate", "--n", "6", "--classes", "1"]) == 2
    assert main(["enumerate", "--n", "6", "--classes", "x"]) == 2


def test_main_smoke(capsys):
    assert main(["hasse", "--n", "4", "--classes", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith('digraph "F_4^{0}"')
    assert "elapsed" in captured.err


@st.composite
def _argv(draw):
    """Argument lists for every subcommand at small sizes, good and bad."""
    command = draw(st.sampled_from(["enumerate", "hasse", "check-graded",
                                    "chains", "el-verify", "counterexample"]))
    sizes = st.integers(-1, 5)
    if command == "counterexample":  # the witnesses start at n = 6
        sizes |= st.integers(6, 8)
    n = draw(sizes)
    argv = [command, "--n", str(n)]
    if command == "chains":
        words = [format_perm(p) for p in enumerate_involutions(max(n, 1))]
        words += ["", "x", "2314", "1,2", "12345"]
        argv += ["--from", draw(st.sampled_from(words)),
                 "--to", draw(st.sampled_from(words)), "--kind",
                 draw(st.sampled_from(["increasing", "decreasing", "all"]))]
    elif command == "counterexample":
        argv += ["--prop", draw(st.sampled_from(["19", "20"])),
                 "--i", str(draw(st.integers(-1, 4)))]
        argv += draw(st.sampled_from([[], ["--m", "1"], ["--m", "0"]]))
    else:
        classes = st.lists(st.integers(-1, 6), min_size=1, max_size=3)
        if n >= 0:
            good = range(n % 2, n + 1, 2)
            classes |= st.lists(st.sampled_from(good), min_size=1, max_size=3)
        argv += draw(st.one_of(
            st.sampled_from([["--all-classes"], [], ["--classes="],
                             ["--classes=x"], ["--classes=0,,2"]]),
            classes.map(lambda c: ["--classes=" + ",".join(map(str, c))]),
        ))
        if command == "enumerate":
            argv += draw(st.sampled_from([[], ["--format", "tsv"]]))
        if command == "el-verify":
            argv += draw(st.sampled_from([[], ["--order", "standard-lex"],
                                          ["--order", "reversed-lex"]]))
    return argv


def _run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_contract_on_small_inputs(argv):
    code, text = _run_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert text == ""
    assert _run_main(argv) == (code, text)


def _chains_oracle(p, q, kind):
    """Exit code and stdout of a chains query, printed by json.dumps."""
    report = {"command": "chains", "n": len(p), "from": format_perm(p),
              "to": format_perm(q), "kind": kind, "status": "pass"}
    if kind in ("increasing", "all"):
        chain = increasing_chain(p, q)
        report["increasing"] = _chain_payload(chain.elements, chain.labels)
    if kind in ("decreasing", "all"):
        chain = decreasing_chain(p, q)
        report["decreasing"] = _chain_payload(chain.elements, chain.labels)
    if kind == "all":
        # the guard decided by the lazy walk, not by the engine's count
        chains = list(islice(iter_saturated_chains(p, q),
                             DEFAULT_CHAIN_GUARD + 1))
        if len(chains) > DEFAULT_CHAIN_GUARD:
            return 2, ""
        report["all"] = [_chain_payload(c.elements, c.labels) for c in chains]
        report["count"] = len(chains)
    return 0, json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_chains_stdout_equals_json_dumps_exhaustive():
    for n in range(1, 7):
        idx = UniverseIndex(enumerate_involutions(n))
        for i, p in enumerate(idx.elements):
            for j in (i, *bits(idx.up[i])):
                q = idx.elements[j]
                for kind in ("increasing", "decreasing", "all"):
                    argv = ["chains", "--n", str(n), "--from", format_perm(p),
                            "--to", format_perm(q), "--kind", kind]
                    assert _run_main(argv) == _chains_oracle(p, q, kind), argv


def test_parser_reuse_after_errors_matches_a_fresh_process():
    argv = ["chains", "--n", "6", "--from", "124365", "--to", "426153",
            "--kind", "all"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run([sys.executable, "-m", "invbruhat.cli", *argv],
                           capture_output=True, text=True, env=env,
                           timeout=60)
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["chains", "--n", "6", "--from", "124365", "--kind", "sideways"])
    assert exc.value.code == 2
    assert _run_main(["chains", "--n", "4", "--from", "2143",
                      "--to", "1234"]) == (2, "")
    assert _run_main(argv) == (fresh.returncode, fresh.stdout)
    assert fresh.returncode == 0 and fresh.stdout
