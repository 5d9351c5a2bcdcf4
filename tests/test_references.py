"""Every public module-level function and class of the package is used by
the program itself, from ``src/``, ``scripts/`` or ``perfbench/``: code that
only tests call is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carecontracts"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
# Kept for the payer's envelope over response maps (ROADMAP item 9), with
# the helpers only they call.
KEPT_FOR_LATER = {"payer_utility", "provider_utility", "expected_payment", "provider_expected_payment"}


def _public_definitions() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def _collect(node: ast.AST, names: set[str]) -> None:
    """Add the names ``node`` reads or imports, and the attributes it reads off
    a package module, skipping the functions kept for later: a store, an
    attribute of any other object, or a call from a kept function is no use."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name in KEPT_FOR_LATER:
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif (
            isinstance(child, ast.Attribute)
            and isinstance(child.ctx, ast.Load)
            and isinstance(child.value, ast.Name)
            and child.value.id in MODULES
        ):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
        _collect(child, names)


def _referenced_names() -> set[str]:
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            _collect(ast.parse(path.read_text(encoding="utf-8")), names)
    return names


def test_every_public_definition_is_used_outside_the_tests():
    unused = _public_definitions() - _referenced_names()
    assert sorted(unused - KEPT_FOR_LATER) == [], "only tests use these"
    assert sorted(KEPT_FOR_LATER - unused) == [], "used or gone: drop from KEPT_FOR_LATER"
