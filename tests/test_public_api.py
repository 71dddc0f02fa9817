"""The package root exports every name the benchmark harness imports, and
pyproject.toml declares every third-party module the tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

import expanderlab

_ROOT = Path(__file__).resolve().parent.parent
_WORKLOADS = _ROOT / "perfbench" / "workloads.py"


def test_all_names_resolve():
    for name in expanderlab.__all__:
        assert hasattr(expanderlab, name), name


def test_benchmark_imports_are_exported():
    tree = ast.parse(_WORKLOADS.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "expanderlab"
                for alias in node.names]
    assert imported
    missing = sorted(set(imported) - set(expanderlab.__all__))
    assert not missing


def test_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    sources = sorted((_ROOT / "tests").rglob("*.py"))
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in sources} | {"expanderlab"}
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"numpy", "pytest"} <= third_party

    with open(_ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = (project["dependencies"]
                    + project["optional-dependencies"]["test"])
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
                .replace("-", "_") for r in requirements}
    assert not sorted(third_party - declared)
