"""Every public module-level function and class of the package, and every
public method and property of a public package class, is used by the
program itself, from ``src/``, ``scripts/`` or ``perfbench/``: code that
only tests call is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carecontracts"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
# Kept for the payer's envelope over response maps (ROADMAP item 9), with
# the helpers only they call.
KEPT_FOR_LATER = {"payer_utility", "provider_utility", "provider_expected_payment"}


def _package_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]


def _public_definitions() -> set[str]:
    names = set()
    for tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def _public_methods() -> set[str]:
    """``Class.method`` for each public method or property of a public class."""
    names = set()
    for tree in _package_trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        names.add(f"{node.name}.{item.name}")
    return names


def _collect(node: ast.AST, names: set[str], attributes: set[str]) -> None:
    """Add the names ``node`` reads or imports, and the attributes it reads off
    a package module, to ``names``, and every attribute it reads off any
    object to ``attributes``, skipping the functions kept for later: a
    store, or a read from a kept function, is no use."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name in KEPT_FOR_LATER:
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            attributes.add(child.attr)
            if isinstance(child.value, ast.Name) and child.value.id in MODULES:
                names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
        _collect(child, names, attributes)


def _references() -> tuple[set[str], set[str]]:
    """The names and the attributes the program reads, as :func:`_collect` gives them."""
    names: set[str] = set()
    attributes: set[str] = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            _collect(ast.parse(path.read_text(encoding="utf-8")), names, attributes)
    return names, attributes


def test_every_public_definition_is_used_outside_the_tests():
    unused = _public_definitions() - _references()[0]
    assert sorted(unused - KEPT_FOR_LATER) == [], "only tests use these"
    assert sorted(KEPT_FOR_LATER - unused) == [], "used or gone: drop from KEPT_FOR_LATER"


def test_every_public_method_is_read_outside_the_tests():
    """A method or property counts as used when the program reads an
    attribute of its name off any object."""
    attributes = _references()[1]
    unused = {method for method in _public_methods() if method.partition(".")[2] not in attributes}
    assert sorted(unused) == [], "only tests use these"
