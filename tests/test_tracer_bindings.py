"""The benchmark tracer's patch list matches the modules it patches.

``perfbench/spans.py`` wraps each traced function in every module named for
it, by replacing that module's global, so the module must bind the name at
its top level and call it through that global. A module that stops importing
a name would fail the traced run with a ``KeyError``; one that keeps the
import but no longer calls it would leave the traced metric reading 0. The
tracer imports only the standard library, so it is loaded from its path.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
BINDINGS = [(module, attr) for _, attr, modules, _, _ in SPANS.FUNCTIONS for module in modules]


@pytest.mark.parametrize("module, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_each_traced_function_is_bound_and_used_where_it_is_patched(module, attr):
    tree = ast.parse((ROOT / "src" / "nlbash" / f"{module}.py").read_text(encoding="utf-8"))
    defined = any(
        isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == attr for node in tree.body
    )
    imported = any(
        isinstance(node, ast.ImportFrom) and any((a.asname or a.name) == attr for a in node.names)
        for node in tree.body
    )
    used = any(isinstance(node, ast.Name) and node.id == attr for node in ast.walk(tree))
    assert defined or (imported and used), (
        f"nlbash.{module} {'never calls' if imported else 'does not bind'} {attr}"
    )


@pytest.mark.parametrize("entry", SPANS.METHODS, ids=[f"{e[2]}.{e[3]}" for e in SPANS.METHODS])
def test_each_traced_method_is_defined_on_its_class(entry):
    _, module, cls_name, attr, _ = entry
    cls = getattr(importlib.import_module(f"nlbash.{module}"), cls_name)
    assert attr in vars(cls), f"{cls_name} does not define {attr}"
