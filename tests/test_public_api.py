"""The package root exports every name the benchmark harness imports."""

import ast
from pathlib import Path

import expanderlab

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
