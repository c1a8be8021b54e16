"""No module imports a name it never reads.  Every module of the package,
the tests and the scripts is parsed with ast; each name bound by a
module-level import must be read somewhere in that module, or be listed in
its __all__ (a re-export).  The numerical core (spectral, variational,
solvers) imports nothing from the layers built on it (constants, config,
cli) nor from the identity checks and the reports (extension, report), and
no module of the package imports one of its own modules inside a function:
only third-party imports (scipy's) are deferred."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src/perifrac", "tests", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that the module
    neither reads nor lists in __all__, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    used = exported | {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in used]


def package_imports(source: str) -> set:
    """Modules of the package that source imports, at any depth, through a
    relative import or the package name."""
    return _package_modules(ast.parse(source))


def function_package_imports(source: str) -> set:
    """Modules of the package that source imports inside a function."""
    return {module for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for module in _package_modules(node)}


def _package_modules(tree: ast.AST) -> set:
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name.split(".")[1] for a in node.names
                        if a.name.startswith("perifrac.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "perifrac":
                    continue
                module = module.partition(".")[2]
            modules |= ({module.split(".")[0]} if module
                        else {a.name for a in node.names})
    return modules


def test_package_import_checker_sees_every_form():
    source = ("import numpy\nimport perifrac.cli\n"
              "from . import spectral as sp\nfrom .config import X\n"
              "from perifrac.solvers import Y\nfrom perifrac import report\n"
              "from json import dumps\n"
              "def f():\n    from .constants import ball_radius\n")
    assert package_imports(source) == {"cli", "spectral", "config", "solvers",
                                       "report", "constants"}
    assert function_package_imports(
        source + "def g():\n    from scipy.special import kv\n") == {
        "constants"}


def test_numerical_core_imports_no_higher_layer():
    for name in ("spectral", "variational", "solvers"):
        source = (ROOT / "src/perifrac" / f"{name}.py").read_text()
        assert not package_imports(source) & {"constants", "config", "cli",
                                              "extension", "report"}


def test_no_module_imports_a_package_module_inside_a_function():
    offenders = {path.name: modules
                 for path in sorted((ROOT / "src/perifrac").glob("*.py"))
                 if (modules := function_package_imports(path.read_text()))}
    assert offenders == {}


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads as parse\n"
              "from re import compile\n"
              "__all__ = ['compile']\n"
              "def f(x):\n    return np.sqrt(x) + len(os.path.sep)\n")
    assert unused_imports(source) == ["math", "dumps", "parse"]


def test_no_module_imports_an_unread_name():
    assert len(SOURCES) > 10
    offenders = {str(path.relative_to(ROOT)): names for path in SOURCES
                 if (names := unused_imports(path.read_text()))}
    assert offenders == {}


def test_package_exports_each_library_module_all():
    import perifrac
    from perifrac import (config, constants, extension, solvers, spectral,
                          variational)
    modules = (config, constants, extension, solvers, spectral, variational)
    names = [name for module in modules for name in module.__all__]
    assert sorted(perifrac.__all__) == sorted(names + ["__version__"])
    assert len(set(names)) == len(names)   # each name has one owner
    for module in modules:
        for name in module.__all__:
            assert getattr(perifrac, name) is getattr(module, name)
