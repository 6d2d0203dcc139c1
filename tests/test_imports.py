"""Import guards: every name a ``src/wpoisson`` module imports is used in
that module (or re-exported through its ``__all__``), no module reaches
into another module's underscore names, and the package ships none of the
checks that only the tests call."""

import ast
import importlib
from pathlib import Path

import pytest

import wpoisson

from work_counts import load_perfbench

SRC = Path(__file__).resolve().parent.parent / "src" / "wpoisson"

# checks and tables that only the tests call; they live in tests/.  The d1
# table and the cochain matrices built from it are the oracle of the ranks
# and derivation bases that the package reads off T_d, so the package
# assembles no d1 matrix; the d0 table is the oracle of the Casimirs that it
# reads off the primitive root of the potential.  The divergence table and its blocks B_e, T_d and
# [T_d | c] are the oracle of the ranks that the package reads off the
# Hamiltonian block.  The M2 table, beside the assembled M2 map, is the
# oracle of the vacancy that the package reads as ozone less Hamiltonians.
# The recursive-descent parser is the oracle of the package's one parser,
# and the subset scan that of gkdim
TEST_ONLY = ("derham_exactness_check", "euler_characteristic_check", "m2_dims", "euler_rhs",
             "closed_form_koszul_h1", "standard_monomials", "negative_degree_pd_dims",
             "mono_mul", "mono_divides", "mono_lcm", "cochain0_table", "cochain1_table",
             "cochain_matrix", "divergence_table", "divergence_block", "_Parser",
             "parse_poly_by_descent", "gkdim_by_subsets")


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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node):
    """the package module a ``from ... import`` reads from: its name, "" for
    the package itself, None outside the package"""
    if node.level == 1:
        return node.module or ""
    if node.module == "wpoisson":
        return ""
    if node.module and node.module.startswith("wpoisson."):
        return node.module[len("wpoisson."):]
    return None


def _private_uses(tree, own):
    """(use, line) of every underscore name of another package module that a
    module imports, or reads as an attribute of that module"""
    bound = {}  # local name -> the package module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and (SRC / (alias.name + ".py")).exists():
                    bound[alias.asname or alias.name] = alias.name
                elif source != own and _private(alias.name):
                    yield "%s.%s" % (source or "wpoisson", alias.name), node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wpoisson.") and alias.asname:
                    bound[alias.asname] = alias.name[len("wpoisson."):]
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in bound:
            source = bound[value.id]
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and value.value.id == "wpoisson"):
            source = value.attr
        else:
            continue
        if source != own:
            yield "%s.%s" % (source, node.attr), node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    """each module uses only the public names of the others: ``linalg``
    alone builds matrices from tables and reads their pivots, ``complexes``
    alone derives its ranks"""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = ["%s (line %d)" % use for use in _private_uses(tree, path.stem)]
    assert not private, "%s uses private names of other modules: %s" % (
        path.name, ", ".join(private))


def test_the_package_ships_no_test_only_check():
    modules = [wpoisson] + [importlib.import_module("wpoisson." + p.stem)
                            for p in sorted(SRC.glob("*.py"))
                            if p.stem not in ("__init__", "__main__")]
    shipped = ["%s.%s" % (m.__name__, name) for m in modules for name in TEST_ONLY
               if hasattr(m, name)]
    shipped += ["__all__: %s" % name for name in TEST_ONLY if name in wpoisson.__all__]
    assert not shipped, shipped


def test_every_perfbench_layer_target_resolves_to_a_callable():
    """the traced benchmark run wraps each (module, attribute path) of
    ``perfbench/layers.py``; one that no longer resolves is only reported on
    stderr, and its metrics read 0"""
    targets = load_perfbench("layers").TARGETS
    assert targets
    for module, path, _ in targets:
        owner = importlib.import_module("wpoisson." + module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), "%s.%s" % (module, path)
