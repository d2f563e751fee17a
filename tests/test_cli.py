import io
import json
from pathlib import Path

import pytest

from invbruhat.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


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
    ["hasse", "--n", "11", "--classes", "11"],
    ["check-graded", "--n", "11", "--classes", "11"],
    ["el-verify", "--n", "11", "--classes", "1"],
    ["check-graded", "--n", "0", "--all-classes"],
    ["chains", "--n", "4", "--from", "1234", "--to", "2314"],
    ["chains", "--n", "8", "--from", "12345678", "--to", "87654321",
     "--kind", "all"],
])
def test_precondition_errors_exit_2_without_output(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_one_class_at_the_largest_sizes_completes():
    code, text = run_cli(["hasse", "--n", "10", "--classes", "10"])
    assert code == 0
    assert text == ('digraph "F_10^{10}" {\n  rankdir=BT;\n'
                    '  "1,2,3,4,5,6,7,8,9,10";\n}\n')
    code, text = run_cli(["enumerate", "--n", "12", "--classes", "12"])
    assert code == 0
    assert json.loads(text)["word"] == "1,2,3,4,5,6,7,8,9,10,11,12"


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
