"""No module of the package imports a name it never uses, and only the
package itself lists its public names."""

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
    """Every name the module loads, and those inside string annotations (as
    ``TYPE_CHECKING`` imports are written)."""
    trees = [tree]
    for annotation in filter(None, _annotations(tree)):
        trees += [ast.parse(node.value, mode="eval") for node in ast.walk(annotation)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


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


def test_only_the_package_assigns_all():
    # ``panopose/__init__.py``'s name table is the one list of public names.
    assigning = {path.name for path in PACKAGE.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)}
    assert assigning == {"__init__.py"}


def test_only_errors_calls_math_isfinite():
    # ``errors._check_number`` is the one rule for a numeric parameter; an
    # array rule uses ``np.isfinite``.
    testing = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "isfinite"
               and isinstance(node.value, ast.Name) and node.value.id == "math"
               or isinstance(node, ast.ImportFrom) and node.module == "math"
               and any(alias.name == "isfinite" for alias in node.names)}
    assert testing == {"errors.py"}


def test_only_errors_words_a_field_fault():
    # ``errors._fields`` is the one rule for a JSON object's fields.
    wording = ("missing field(s)", "unexpected field(s)", "must be an object")
    saying = {path.name for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and any(words in node.value for words in wording)}
    assert saying == {"errors.py"}


def _calls(tree, name):
    """The calls in ``tree`` of a function or method named ``name``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)) == name]


def test_only_errors_opens_an_output_and_tests_it_for_a_regular_file():
    # ``errors._direct`` opens every output that is not staged, and
    # ``errors._regular`` alone says whether the file it opened is a regular
    # one, written from its start: no module writes through ``Path``'s
    # ``write_text`` or ``write_bytes``, which truncate a descriptor's file,
    # and no function but that one asks an opened file (``os.fstat``)
    # whether it is regular (``S_ISREG``).
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert [name for name, tree in trees.items() if _calls(tree, "write_text") or _calls(tree, "write_bytes")] == []
    testing = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and _calls(node, "fstat") and _calls(node, "S_ISREG")}
    assert testing == {("errors.py", "_regular")}
