"""No module imports a name it never reads.  Every module of the package,
the tests and the scripts is parsed with ast; each name bound by a
module-level import must be read somewhere in that module, or be listed in
its __all__ (a re-export)."""

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
