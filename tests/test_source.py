"""Static checks on the package source, stdlib ast only."""

import ast
from pathlib import Path

import pytest

import wavelab

MODULES = sorted(p for p in Path(wavelab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detects_dead_names():
    source = "import struct\nimport numpy as np\nfrom .a import b, c\nnp.zeros(c)\n"
    assert unused_imports(source) == ["struct", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def dataclass_fields(source: str) -> list:
    """(class, field) of every annotated field of a @dataclass class."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields += [(node.name, s.target.id) for s in node.body
                       if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return fields


def attributes_read(source: str) -> set:
    """Names read as an attribute (x.name) anywhere in source."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_dataclass_fields_detects_unread_fields():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "    Z = 1\n\nclass B:\n    w: int\n\nprint(a.x)\n")
    assert dataclass_fields(source) == [("A", "x"), ("A", "y")]
    assert attributes_read(source) == {"x"}


def test_every_dataclass_field_is_read():
    # This file reads the AST's own attributes (.target, .body), so it is left out.
    tests = [p for p in Path(__file__).parent.glob("*.py") if p.name != Path(__file__).name]
    read = set().union(*(attributes_read(p.read_text()) for p in [*MODULES, *tests]))
    unread = [f"{cls}.{name}" for path in MODULES
              for cls, name in dataclass_fields(path.read_text()) if name not in read]
    assert unread == []


def uncalled_private_helpers(sources: list) -> list:
    """Module-level private (_name) functions and classes that no other
    top-level statement of any of the sources reads, in source order."""
    statements = [node for source in sources for node in ast.parse(source).body]
    reads = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))} for node in statements]
    return [node.name for i, node in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not any(node.name in r for j, r in enumerate(reads) if j != i)]


def test_uncalled_private_helpers_detects_left_behind_helpers():
    a = ("def _used():\n    pass\n\ndef _self_only():\n    return _self_only()\n\n"
         "class _Dead:\n    pass\n\ndef _imported_only():\n    pass\n\n"
         "def public():\n    return _used()\n")
    b = "from .a import _imported_only\n\nx = m._attr_read\n"
    c = "def _attr_read():\n    pass\n"
    assert uncalled_private_helpers([a, b, c]) == ["_self_only", "_Dead", "_imported_only"]


def test_every_private_helper_has_a_caller():
    assert uncalled_private_helpers([p.read_text() for p in MODULES]) == []
