"""Static checks on the package source, stdlib ast only."""

import ast
import sys
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


def foreign_imports(source: str) -> list:
    """Top-level packages a module imports besides the standard library,
    numpy and its own package (relative imports), in import order."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in allowed and name != "wavelab"]


def test_foreign_imports_detects_undeclared_dependencies():
    source = ("from __future__ import annotations\nimport math, numpy as np\n"
              "import scipy.signal\nfrom numpy.lib import stride_tricks\n"
              "from .channel import phasor\nfrom wavelab import otfs\n"
              "def f():\n    from scipy import fft\n    import numba\n")
    assert foreign_imports(source) == ["scipy", "scipy", "numba"]


@pytest.mark.parametrize("path", sorted(Path(wavelab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_numpy(path):
    # numpy is the one declared dependency (pyproject.toml)
    assert foreign_imports(path.read_text()) == []


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


# The functions allowed to call np.exp.  Per-sample Doppler ramps come from
# channel.phasor; the others evaluate a few values each: one per antenna,
# the DFT of a short FIR, one per symbol centre.
EXP_CALLERS = {
    "channel.phasor",
    "channel.steering_vector",
    "channel.ScalarChannel.frequency_response",
    "link.ofdm_genie_response",
}


def exp_call_sites(module: str, source: str) -> list:
    """Qualified name (module.Class.function) of the scope of each np.exp call."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "np.exp":
                sites.append(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_exp_call_sites_names_each_scope():
    # The three per-sample ramp shapes phasor replaced: inline in a method,
    # in a local, and in a module-level helper; plus a call at module level.
    source = ("import numpy as np\n\nx = np.exp(0)\n\n"
              "class ScalarChannel:\n    def __call__(self, n):\n"
              "        return np.exp(2j * n) * np.sqrt(n)\n\n"
              "    def matrix(self, n):\n        ramp = np.exp(2j * n)\n"
              "        return [np.exp(r) for r in ramp]\n\n"
              "def _doppler_ramp(nu, n):\n    return np.exp(-2j * nu * n)\n")
    assert exp_call_sites("m", source) == [
        "m", "m.ScalarChannel.__call__", "m.ScalarChannel.matrix",
        "m.ScalarChannel.matrix", "m._doppler_ramp"]


def test_np_exp_only_in_allowed_functions():
    sites = {site for path in MODULES for site in exp_call_sites(path.stem, path.read_text())}
    assert sorted(sites - EXP_CALLERS) == []
