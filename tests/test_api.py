"""The package exports, and the fields it declares, are used outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cltlab"
INIT = PACKAGE / "__init__.py"
# the package's modules and scripts: the code whose reads count as use
READERS = [p for p in PACKAGE.glob("*.py") if p != INIT] + sorted((ROOT / "scripts").glob("*.py"))


def loaded_names(path: Path, attributes_only: bool = False) -> set[str]:
    """Names and attributes read (not bound) anywhere in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not attributes_only:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def dataclass_fields(path: Path) -> set[str]:
    """``Class.field`` for every field of the dataclasses one module declares."""
    fields = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.add(f"{node.name}.{stmt.target.id}")
    return fields


def test_every_export_is_used_outside_the_tests():
    exported = {
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set().union(*(loaded_names(p) for p in READERS))
    assert sorted(exported - used) == []


# fields that only the benchmark's tracer reads, to label and count recursion spans
TRACER_ONLY = {"ValueField.mode", "ValueField.n"}


def test_every_dataclass_field_is_read_outside_the_tests():
    # a read is an attribute load of the field's name on any object, so a field
    # whose name another class shares passes by that name; TRACER_ONLY names
    # the fields kept for the tracer alone, which the package need not read
    declared = set().union(*(dataclass_fields(p) for p in PACKAGE.glob("*.py")))
    read = set().union(*(loaded_names(p, attributes_only=True) for p in READERS))
    assert len(declared) > 50  # the walk finds the declarations
    unread = {f for f in declared if f.split(".")[1] not in read}
    assert sorted(unread - TRACER_ONLY) == []
    tracer = loaded_names(ROOT / "perfbench" / "tracing.py", attributes_only=True)
    assert TRACER_ONLY <= declared and {f.split(".")[1] for f in TRACER_ONLY} <= tracer
