"""Import guards: every name a ``src/wpoisson`` module imports is used in
that module (or re-exported through its ``__all__``), and no module but
``linalg`` reaches into ``linalg``'s underscore names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wpoisson"


def _imported_names(tree):
    """(bound name, line) of every import outside ``from __future__``"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    dead = ["%s (line %d)" % (name, line) for name, line in _imported_names(tree)
            if name not in used]
    assert not dead, "%s imports names it never uses: %s" % (path.name, ", ".join(dead))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_private_linalg_names(path):
    """linalg alone builds matrices from tables and reads their pivots; the
    other modules use its public names"""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = ["%s (line %d)" % (alias.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "wpoisson.linalg")
               for alias in node.names if alias.name.startswith("_")]
    private += ["linalg.%s (line %d)" % (node.attr, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "linalg" and node.attr.startswith("_")]
    assert not private, "%s uses private linalg names: %s" % (path.name, ", ".join(private))
