import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import invbruhat
from invbruhat.cli import main
from invbruhat.fpclasses import MAX_VIEW_N, enumerate_class, involution_view
from invbruhat.moves import covers
from invbruhat.perms import MAX_N

ROOT = Path(__file__).resolve().parent.parent


def test_every_cache_is_bounded():
    cached = {}
    for info in pkgutil.iter_modules(invbruhat.__path__):
        module = importlib.import_module(f"invbruhat.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                cached[f"{info.name}.{name}"] = \
                    value.cache_parameters()["maxsize"]
    assert {"moves.covers", "bruhat.bruhat_leq"} <= set(cached)
    assert all(size is not None for size in cached.values()), cached


def test_no_cache_holds_what_no_command_reads(capsys):
    """The whole order is built from the uncached move scan, class
    commands read their labels from it, classes are not cached, and
    hasse takes no one-value --format option."""
    covers.cache_clear()
    involution_view.__wrapped__(7)
    assert main(["el-verify", "--n", "6", "--classes", "0"]) == 0
    assert main(["hasse", "--n", "6", "--classes", "2,6"]) == 0
    assert covers.cache_info().currsize == 0
    capsys.readouterr()
    assert not hasattr(enumerate_class, "cache_info")
    with pytest.raises(SystemExit) as exc:
        main(["hasse", "--n", "4", "--classes", "0", "--format", "dot"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_benchmark_tracer_wraps_every_layer():
    """A traced benchmark pass still finds every function it wraps and
    the two caches whose statistics it reports."""
    job = {"argvs": [["el-verify", "--n", "6", "--classes", "0"],
                     ["el-verify", "--n", "5", "--all-classes"]],
           "check": "el", "trace": True, "probe": False}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         repr(time.monotonic())],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["errors"] == {} and report["wrong"] == []
    assert {"bruhat.leq", "moves.covers"} <= set(report["caches"])


def test_readme_states_the_size_caps_the_code_enforces():
    text = " ".join((ROOT / "README.md").read_text().split())
    assert (f"capped at `n = {MAX_N}`, and at `n = {MAX_VIEW_N}` for "
            "anything built on a class's order") in text
    assert (f"`--n` outside `1..{MAX_N}` (`1..{MAX_VIEW_N}` for `hasse`, "
            "`check-graded` and `el-verify`)") in text
