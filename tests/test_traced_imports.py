"""No traced module imports a function from a module that has no layer.

perfbench/tracer.py wraps every function that one of its traced modules
imports from another mlstar module, and files the function's spans under
the layer of the module that defines it. errors, defaults and records have
no layer, so a function imported from one of them at module level would
make Tracer._close raise KeyError on its first call.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mlstar"


def _tracer_tuple(name: str) -> tuple:
    """The tuple that perfbench/tracer.py assigns to name, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py assigns no {name}")


TRACED = _tracer_tuple("MODULES")
UNLAYERED = sorted(path.stem for path in PACKAGE.glob("*.py")
                   if path.stem not in _tracer_tuple("LAYERS") and path.stem != "__init__")


def imported_functions(module: str, owners) -> list:
    """The functions that mlstar.<module> binds at module level and one of owners defines."""
    owners = {f"mlstar.{owner}" for owner in owners}
    return sorted(f"{obj.__module__}.{obj.__name__}"
                  for obj in vars(importlib.import_module(f"mlstar.{module}")).values()
                  if isinstance(obj, types.FunctionType) and obj.__module__ in owners)


def test_the_modules_without_a_layer():
    assert len(TRACED) == 7 and UNLAYERED == ["defaults", "errors", "records"]


@pytest.mark.parametrize("module", TRACED)
def test_no_traced_module_imports_a_function_from_a_module_without_a_layer(module):
    assert imported_functions(module, UNLAYERED) == []


def test_the_guard_sees_a_cross_module_function_import():
    assert "mlstar.mittag_leffler._horner" in imported_functions("certify", ["mittag_leffler"])
