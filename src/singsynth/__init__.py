"""Singing voice synthesis at desk scale: score to vocoder-ready features."""

import os

# One BLAS thread unless the caller set one, before any submodule imports
# numpy: at this model's sizes more threads only slow training's processes
# down, and OpenBLAS's result bits depend on its thread count.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
