"""The only imports a package module leaves unused are the tracer's targets.

The benchmark's span tracer (perfbench/tracing.py) wraps four names
through the modules that import them, so those imports stay until it is
re-pointed (ROADMAP item 5).  Any other unused import is dead code.  The
tracer is read as text and never run.
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
