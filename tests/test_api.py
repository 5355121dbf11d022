"""The package exports, and the fields it declares, are used outside the tests."""

import ast
import subprocess
import sys
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


def test_no_module_imports_a_private_name_of_another():
    # a module reaches another only through its public names
    private = [
        f"{path.name}: {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("cltlab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_audit_layer_loads_no_solver():
    # a bare package stands in for cltlab/__init__.py, which imports every
    # module; smoothing itself must load neither the recursion nor the scheme
    code = (
        "import sys, types\n"
        "package = types.ModuleType('cltlab')\n"
        "package.__path__ = [sys.argv[1]]\n"
        "sys.modules['cltlab'] = package\n"
        "import cltlab.smoothing\n"
        "print(*sorted(name for name in sys.modules if name.startswith('cltlab.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(PACKAGE)],
                         capture_output=True, text=True, check=True).stdout
    loaded = out.split()
    assert "cltlab.smoothing" in loaded
    assert {"cltlab.recursion", "cltlab.gheat"}.isdisjoint(loaded)
