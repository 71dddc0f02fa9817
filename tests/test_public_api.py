"""The package root exports every name the benchmark harness imports,
pyproject.toml declares every third-party module the tests import, scipy
stays unloaded until a graph needs it, no package module calls ARPACK or
a dense eigensolver, no check relies on assert, each build rule is stated
in one module, every exported keyword is passed outside tests, and a
refusal that names a caller's int prints it at any size."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import expanderlab
from expanderlab import bounds, graph_core, numtheory, ramanujan_base
from expanderlab.errors import ValidationError
from helpers import script_env

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


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports the checkout's package."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=script_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr


_NO_SCIPY = ("loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "assert not loaded, loaded\n")


def test_scipy_loads_on_first_graph_solve():
    _run_fresh("import sys\n"
               "import expanderlab as e\n"
               "e.delta_table(((10, 100),))\n"
               "e.plan(7)\n"
               "x = e.graph_from_text(e.graph_to_text(e.build_lps(5, 13)))\n"
               "assert e.regularity(x) == 6\n"
               "y, _ = e.increment_regularity(x)\n"
               "assert e.regularity(e.graph_from_text(e.graph_to_text(y))) == 7\n"
               + _NO_SCIPY +
               "e.certify(x)\n"
               "assert 'scipy.sparse.linalg' in sys.modules\n")


def test_cli_delta_table_and_bounds_leave_scipy_unloaded():
    _run_fresh("import sys\n"
               "from expanderlab.cli import main\n"
               "assert main(['delta-table', '--ranges', '10:100']) == 0\n"
               "assert main(['bounds', '--k', '7']) == 0\n"
               + _NO_SCIPY)


def test_no_assert_statements_outside_tests():
    # python -O strips assert, so a check made with it checks nothing there.
    sources = sorted([*(_ROOT / "scripts").glob("*.py"),
                      *(_ROOT / "src" / "expanderlab").glob("*.py")])
    assert sources
    found = [f"{path.relative_to(_ROOT)}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found


def _imported_modules(tree: ast.Module):
    """(line, dotted name) of every module or module member imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from ((node.lineno, f"{node.module}.{a.name}")
                        for a in node.names)


# numpy.linalg's and scipy.linalg's dense symmetric and general eigensolvers.
_DENSE_EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}


def test_package_runs_one_eigen_engine():
    # Every eigenvalue the package reports comes from its own Lanczos
    # recurrence, proved complete by Cholesky up to DENSE_THRESHOLD: no
    # module imports scipy.sparse.linalg, where ARPACK lives, or imports or
    # calls a dense eigensolver, as a name or as an attribute such as
    # np.linalg.eigh, and a Spectrum names one of the two methods.
    sources = sorted((_ROOT / "src" / "expanderlab").glob("*.py"))
    assert sources
    found, methods = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(_ROOT)
        found += [f"{where}:{line} {name}"
                  for line, name in _imported_modules(tree)
                  if (name + ".").startswith("scipy.sparse.linalg.")
                  or name.rpartition(".")[2] in _DENSE_EIGENSOLVERS]
        found += [f"{where}:{node.lineno} .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in _DENSE_EIGENSOLVERS]
        methods.update(node.args[-1].value for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "Spectrum")
    assert not found
    assert methods == {"iterative+inertia", "iterative"}


def test_lapack_routines_resolve():
    # Every LAPACK routine the package calls, as lapack.<name> or imported
    # from scipy.linalg.lapack, exists in the installed scipy, and the
    # tridiagonal eigensolves call LAPACK directly, not through scipy's
    # eigh_tridiagonal.
    from scipy.linalg import lapack

    sources = sorted((_ROOT / "src" / "expanderlab").glob("*.py"))
    assert sources
    routines, wrapped = set(), []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "lapack"):
                routines.add(node.attr)
            if (isinstance(node, ast.Attribute)
                    and node.attr == "eigh_tridiagonal"):
                wrapped.append(f"{path.relative_to(_ROOT)}:{node.lineno}")
        for line, name in _imported_modules(tree):
            module, _, member = name.rpartition(".")
            if module == "scipy.linalg.lapack":
                routines.add(member)
            if member == "eigh_tridiagonal":
                wrapped.append(f"{path.relative_to(_ROOT)}:{line}")
    assert {"dstebz", "dstein", "dpftrf", "dsfrk"} <= routines
    assert not sorted(r for r in routines if not hasattr(lapack, r))
    assert not wrapped


def test_each_build_rule_has_one_owner():
    # ramanujan_base alone decides which (p, q) make a base, so only it
    # takes a name mod 4; bounds alone decides bound validity, so only it
    # compares anything with a gap model's name.
    models = {"trudgian", "bhp", "rh"}
    mod4, named = set(), set()
    for path in sorted((_ROOT / "src" / "expanderlab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Name)
                    and isinstance(node.right, ast.Constant)
                    and node.right.value == 4):
                mod4.add(path.stem)
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                operands += [e for o in operands
                             if isinstance(o, (ast.Tuple, ast.List, ast.Set))
                             for e in o.elts]
                if any(isinstance(o, ast.Constant) and o.value in models
                       for o in operands):
                    named.add(path.stem)
        if path.stem == "planner":
            imported = {name.rpartition(".")[2]
                        for _, name in _imported_modules(tree)}
    assert mod4 == {"ramanujan_base"}
    assert named == {"bounds"}
    assert not imported & {"Q_MAX", "is_prime", "prev_prime", "lps_params"}


# Definitions nothing in src/, scripts/ or perfbench/ refers to by name.
_UNREFERENCED_BY_DESIGN = {
    # argparse calls ArgumentParser.error on a usage error.
    "cli._Parser.error",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, name, node) of every module-level function, class
    and constant, and of every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not _is_dunder(item.name)):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                if isinstance(t, ast.Name) and not _is_dunder(t.id):
                    yield f"{module}.{t.id}", t.id, node


def test_package_code_is_used_outside_tests():
    # Code that only tests call belongs in tests/: every definition in the
    # package must be referenced, as a name, an attribute or an import, by
    # the package, the scripts or the benchmark outside its own definition.
    package = sorted((_ROOT / "src" / "expanderlab").glob("*.py"))
    users = package + sorted([*(_ROOT / "scripts").glob("*.py"),
                              *(_ROOT / "perfbench").glob("*.py")])
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in users}
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    unreferenced = sorted(
        qualified for path in package
        for qualified, name, node in _definitions(path.stem, trees[path])
        if all(where == path and node.lineno <= line <= node.end_lineno
               for where, line in refs.get(name, [])))
    assert unreferenced == sorted(_UNREFERENCED_BY_DESIGN)


# Optional or keyword-only parameters of exported functions that no call
# outside tests passes.
_UNPASSED_BY_DESIGN: set[str] = set()


def _passed_arguments(trees) -> dict[str, tuple[int, set[str]]]:
    """For each function name, the most positional arguments any call
    passes it and the keywords some call names; a call that hands the
    function on, as spans.call(name, f, *args, **kw) or partial(f, ...)
    do, passes it the arguments that follow it."""
    passed: dict[str, tuple[int, set[str]]] = {}

    def note(name: str, args: list, keywords: list) -> None:
        most, names = passed.get(name, (0, set()))
        starred = any(isinstance(a, ast.Starred) for a in args)
        names |= {k.arg or "**" for k in keywords}
        passed[name] = (max(most, 10**6 if starred else len(args)), names)

    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name:
                note(name, node.args, node.keywords)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Name):
                    note(arg.id, node.args[i + 1:], node.keywords)
    return passed


def test_every_exported_keyword_is_passed_outside_tests():
    # A knob only tests turn (extreme_eigs once took a tol no caller set)
    # is not part of the pipeline: every optional or keyword-only
    # parameter of an exported function is passed, by keyword or by
    # position, by some call in src/, scripts/ or perfbench/.
    sources = sorted([*(_ROOT / "src" / "expanderlab").glob("*.py"),
                      *(_ROOT / "scripts").glob("*.py"),
                      *(_ROOT / "perfbench").glob("*.py")])
    passed = _passed_arguments(
        ast.parse(path.read_text(encoding="utf-8")) for path in sources)
    unpassed, checked = [], 0
    for name in expanderlab.__all__:
        fn = getattr(expanderlab, name)
        if not inspect.isfunction(fn):
            continue
        most, keywords = passed.get(name, (0, set()))
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            if (param.default is param.empty
                    and param.kind is not param.KEYWORD_ONLY):
                continue
            checked += 1
            positional = (param.kind is param.POSITIONAL_OR_KEYWORD
                          and i < most)
            if not (positional or param.name in keywords
                    or "**" in keywords):
                unpassed.append(f"{name}.{param.name}")
    assert checked >= 5
    assert sorted(unpassed) == sorted(_UNPASSED_BY_DESIGN)


_HUGE = 10**5000 + 1  # 5001 digits, past the interpreter's 4300-digit limit


@pytest.mark.parametrize("call", [
    pytest.param(lambda: numtheory.is_prime(_HUGE), id="is_prime"),
    pytest.param(lambda: numtheory.prev_prime(-_HUGE), id="prev_prime"),
    pytest.param(lambda: numtheory.next_prime(-_HUGE), id="next_prime"),
    pytest.param(lambda: ramanujan_base.smallest_modulus(_HUGE, 10),
                 id="smallest_modulus"),
    pytest.param(lambda: ramanujan_base.four_square_generators(_HUGE),
                 id="four_square_generators"),
    pytest.param(lambda: expanderlab.construct(7, -_HUGE), id="construct"),
    pytest.param(lambda: numtheory.legendre(5, -_HUGE), id="legendre"),
    pytest.param(lambda: graph_core.from_edge_list(3, [(0, _HUGE)]),
                 id="from_edge_list"),
    pytest.param(lambda: bounds.rh_exponent(10, _HUGE), id="rh_exponent"),
])
def test_refusals_name_an_int_past_the_digit_limit(call):
    # Each message formats the caller's int; in decimal it would raise the
    # interpreter's ValueError instead of the refusal.
    with pytest.raises(ValidationError, match="<16610-bit (negative )?integer>"):
        call()
