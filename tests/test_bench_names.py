"""Every function the benchmark scripts trace still exists.  The lists of
scripts/bench.py (STAGES, LAYERS, and CLIMBS, whose entries add a span
name) and perfbench/worker.py (LAYERS) are read with ast, without running
either script, and each entry's (module, attribute) must name a callable;
a renamed or deleted function would otherwise surface only when a bench
run installs its tracer."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACED = {"scripts/bench.py": ("STAGES", "LAYERS", "CLIMBS"),
          "perfbench/worker.py": ("LAYERS",)}


def traced_names(path: pathlib.Path, lists) -> list:
    """The (module, attribute) of each entry of the module-level lists
    named `lists` in the source at path."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in lists:
                    found[target.id] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(lists)
    return [entry[:2] for name in lists for entry in found[name]]


CASES = [(script, module, attr) for script, lists in TRACED.items()
         for module, attr in traced_names(ROOT / script, lists)]


@pytest.mark.parametrize("script, module, attr", CASES,
                         ids=[f"{s}:{m}.{a}" for s, m, a in CASES])
def test_traced_name_resolves(script, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
