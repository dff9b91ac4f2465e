"""Singing voice synthesis at desk scale: score to vocoder-ready features."""

import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Whether numpy's BLAS is known to run one thread: each variable reads "1"
# when numpy loads. An unset one counts only if numpy has not loaded yet,
# because it is set below. Graph-free attention starts its threads only
# then, so they never each drive several BLAS threads on the same cores.
BLAS_ONE_THREAD = all(
    os.environ.get(_name, None if "numpy" in sys.modules else "1") == "1"
    for _name in _BLAS_THREAD_VARS)

# One BLAS thread unless the caller set one, before any submodule imports
# numpy: at this model's sizes more threads only slow training's processes
# down, and OpenBLAS's result bits depend on its thread count.
for _name in _BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
