"""Every public module-level function and class of the package is used by
the program itself, from ``src/``, ``scripts/`` or ``perfbench/``: code that
only tests call is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Kept for the payer's envelope over response maps (ROADMAP item 9).
KEPT_FOR_LATER = {"payer_utility", "provider_utility"}


def _public_definitions() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "carecontracts").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def _referenced_names() -> set[str]:
    """Every name a program file reads, imports, or reaches as an attribute;
    a definition itself is not a reference."""
    names = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


def test_every_public_definition_is_used_outside_the_tests():
    unused = _public_definitions() - _referenced_names()
    assert sorted(unused - KEPT_FOR_LATER) == [], "only tests use these"
    assert sorted(KEPT_FOR_LATER - unused) == [], "used or gone: drop from KEPT_FOR_LATER"
