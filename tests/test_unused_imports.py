"""No dead names in the package: unused imports and unread private names.

The only imports a package module leaves unused are the tracer's
targets.  The benchmark's span tracer (perfbench/tracing.py) wraps four
names through the modules that import them, so those imports stay until
it is re-pointed (ROADMAP item 5).  Any other unused import is dead code,
and so is a module-level _private name that no module of the package
reads.  The tracer is read as text and never run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "openbaker"
TRACING = ROOT / "perfbench" / "tracing.py"

TRACER_ONLY = {
    ("cache", "read_spectrum_csv"),
    ("cache", "sha256_file"),
    ("cache", "write_spectrum_csv"),
    ("spectra", "open_propagator"),
}


def unused_imports(source: str) -> set[str]:
    """Names a module imports, anywhere in it, and never reads; __future__ aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def private_names(source: str) -> set[str]:
    """Module-level _private names a module defines: functions, classes, assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names a module loads, reads as an attribute, or imports from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_unused_imports_reader():
    source = ("from __future__ import annotations\nimport os, numpy.linalg\n"
              "from a import b, c as d\n\ndef f() -> b:\n    import json\n    return numpy.pi\n")
    assert unused_imports(source) == {"os", "d", "json"}


def test_only_the_tracer_targets_are_imported_unused():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == TRACER_ONLY


def test_the_tracer_wraps_each_unused_import():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    # the calls w(module, "name", ...) that wrap a module attribute by name
    wrapped = {
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(install)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "w" and len(call.args) >= 2
        and isinstance(call.args[0], ast.Name) and isinstance(call.args[1], ast.Constant)
    }
    assert TRACER_ONLY <= wrapped


def test_private_names_reader():
    source = ("_A = 1\n_b: int = 2\n_c, (_d, E) = 3, (4, 5)\n__all__ = []\n"
              "class _K:\n    _inner = 0\n\ndef _f():\n    _local = _A\n    return _local\n"
              "from .m import _g\nx.ns._h = _b\n")
    assert private_names(source) == {"_A", "_b", "_c", "_d", "_K", "_f"}
    assert {"_A", "_b", "_g", "_local"} <= names_read(source)
    assert not {"_c", "_d", "_K", "_f", "_h", "_inner"} & names_read(source)


def test_every_private_name_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_read, sources.values()))
    defined = {(stem, name) for stem, source in sources.items() for name in private_names(source)}
    assert len(defined) > 40  # the reader still finds the package's names
    assert {(stem, name) for stem, name in defined if name not in read} == set()
