"""Singing voice synthesis at desk scale: score to vocoder-ready features."""

import ctypes
import glob
import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CALLER_SET = any(_name in os.environ for _name in _BLAS_THREAD_VARS)
# whether each variable reads "1" as numpy's BLAS loads, unset ones set below
_LOADED_AT_ONE = all(
    os.environ.get(_name, None if "numpy" in sys.modules else "1") == "1"
    for _name in _BLAS_THREAD_VARS)

# One BLAS thread unless the caller set one, before any submodule imports
# numpy: at this model's sizes more threads only slow training's processes
# down, and OpenBLAS's result bits depend on its thread count.
for _name in _BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

import numpy  # noqa: E402  (its BLAS reads the variables as it loads)

# numpy's own OpenBLAS, in the wheel's library folder beside the package, is
# set to one thread at run time too, for a program that imported numpy first.
_found = glob.glob(os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas64_*.so")
_blas = ctypes.CDLL(_found[0]) if _found else None
_get = getattr(_blas, "scipy_openblas_get_num_threads64_", None)
if _get is not None:
    _get.argtypes, _get.restype = [], ctypes.c_int
    _set = _blas.scipy_openblas_set_num_threads64_
    _set.argtypes, _set.restype = [ctypes.c_int], None
    if not _CALLER_SET:
        _set(1)

# Whether numpy's BLAS runs one thread: the count OpenBLAS reports, or for a
# BLAS whose count cannot be read (MKL, Accelerate), whether every variable
# read "1" as it loaded. Graph-free attention's threads and training's
# processes run only then, so that they never each drive several BLAS
# threads on the same cores.
BLAS_ONE_THREAD = _get() == 1 if _get is not None else _LOADED_AT_ONE

__version__ = "0.1.0"
