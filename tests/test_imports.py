"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "panopose"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Every name the module loads, those inside string annotations (as
    ``TYPE_CHECKING`` imports are written) and those its ``__all__`` lists."""
    trees = [tree]
    for annotation in filter(None, _annotations(tree)):
        trees += [ast.parse(node.value, mode="eval") for node in ast.walk(annotation)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert unused == [], f"{path.name} imports {unused} and never uses them"
