"""The package exports only names that the package or its scripts use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cltlab"


def loaded_names(path: Path) -> set[str]:
    """Names and attributes read (not bound) anywhere in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_is_used_outside_the_tests():
    init = PACKAGE / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    modules = [p for p in PACKAGE.glob("*.py") if p != init]
    modules += sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*(loaded_names(p) for p in modules))
    assert sorted(exported - used) == []
