import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path
from types import ModuleType

import pytest

import invbruhat
from invbruhat.cli import main
from invbruhat.fpclasses import MAX_VIEW_N, enumerate_class, involution_view
from invbruhat.moves import covers
from invbruhat.perms import MAX_N

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invbruhat"


def top_level_names(tree: ast.Module) -> set[str]:
    """The names a module's own top level defines, imports aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


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


def test_every_name_has_one_definition_and_one_import_path():
    """Each name is defined in one module and imported from that module;
    the package root binds nothing but its submodules."""
    defined = {path.stem: top_level_names(ast.parse(path.read_text()))
               for path in sorted(PACKAGE.glob("*.py"))}
    owners = {}
    for module, names in defined.items():
        for name in names:
            owners.setdefault(name, []).append(module)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}

    wrong = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                module = node.module or "__init__"
            elif (node.module or "").startswith("invbruhat"):
                module = node.module.partition(".")[2] or "__init__"
            else:
                continue
            wrong += [f"{path.name}: {module}.{alias.name}"
                      for alias in node.names
                      if alias.name not in defined[module]]
    assert wrong == []

    public = {name for name, value in vars(invbruhat).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set()
