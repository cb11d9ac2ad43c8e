"""No dead imports in the package: every name a module of src/sharegoods
imports is used there, exported in its __all__, or a binding that the
benchmark tracer wraps (benchmarks/tracing.py's BINDINGS, read here)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "sharegoods").glob("*.py"))


def _literal(tree: ast.Module, name: str, default=None):
    """The literal value a module assigns to name at top level."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    return default


# The (module, attribute) pairs the tracer wraps, each fetched by getattr.
TRACER = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
BINDINGS = _literal(TRACER, "BINDINGS")
assert BINDINGS, "benchmarks/tracing.py defines no BINDINGS"


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = {attr for module, attr in BINDINGS if module == path.stem}
    dead = _imported(tree) - used - set(_literal(tree, "__all__", ())) - traced
    assert not dead, f"{path.name} imports {sorted(dead)} and never uses them"
