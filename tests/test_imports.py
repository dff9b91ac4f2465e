"""Package import guards: every import sits at module level, so the module
dependency graph is visible at the top of each file and has no cycles
hidden inside functions; and importing the package sets numpy's BLAS to one
thread unless a variable says otherwise, and records whether it runs one."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singsynth

PACKAGE_DIR = Path(singsynth.__file__).parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


# OpenBLAS runs at most one thread per CPU in the affinity
ONE_CPU = len(os.sched_getaffinity(0)) == 1
# hides numpy's bundled OpenBLAS from the package
NO_OPENBLAS = "import glob; glob.glob = lambda pattern: []"


@pytest.mark.parametrize("code, env, one_thread", [
    ("import singsynth", {}, True),
    ("import numpy, singsynth", {}, True),
    ("import singsynth", {"OPENBLAS_NUM_THREADS": "2"}, ONE_CPU),
    ("import numpy, singsynth", dict.fromkeys(BLAS_THREAD_VARS, "1"), True),
    ("import numpy, singsynth", {"OPENBLAS_NUM_THREADS": "2"}, ONE_CPU),
    # a BLAS whose count cannot be read, such as MKL: the variables decide
    (f"{NO_OPENBLAS}; import singsynth", {}, True),
    (f"{NO_OPENBLAS}; import numpy, singsynth", {}, False),
])
def test_blas_one_thread_only_when_numpy_loads_with_every_variable_at_one(
        code, env, one_thread):
    # numpy's OpenBLAS is set to one thread even when it loaded first, unless
    # a variable was set, which wins; BLAS_ONE_THREAD reads its count
    child_env = {name: value for name, value in os.environ.items()
                 if name not in BLAS_THREAD_VARS}
    child_env["PYTHONPATH"] = str(PACKAGE_DIR.parent)
    done = subprocess.run(
        [sys.executable, "-c", f"{code}; print(singsynth.BLAS_ONE_THREAD)"],
        env={**child_env, **env}, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == str(one_thread)
