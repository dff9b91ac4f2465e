"""Package layout guard: every import sits at module level, so the module
dependency graph is visible at the top of each file and has no cycles
hidden inside functions."""

import ast
from pathlib import Path

import singsynth

PACKAGE_DIR = Path(singsynth.__file__).parent


def function_level_imports(source: str, filename: str) -> list[int]:
    """Line numbers of import statements inside any function body."""
    lines = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [inner.lineno for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def test_guard_finds_an_import_in_a_nested_function():
    source = "import os\n\ndef f():\n    def g():\n        import sys\n"
    assert function_level_imports(source, "example.py") == [5]


def test_no_import_inside_a_function():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{line}"
        for path in modules
        for line in function_level_imports(path.read_text(encoding="utf-8"),
                                           str(path))
    ]
    assert offenders == []
