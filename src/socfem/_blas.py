"""Pin the OpenBLAS copies bundled with numpy and scipy to one thread.

socfem's dense work is small: implicit-Euler steps over a few hundred
right-hand-side columns and per-path reductions.  OpenBLAS helper threads
do not speed these up; they spin on the cores the solves need (on two
cores, the ``rates_mc_1d`` benchmark spent about 19 s of CPU in 12 s of
wall time with two threads, against about 5 s of both with one).  numpy
and scipy each ship their own OpenBLAS, so both are pinned.
``ctypes.CDLL`` returns the copy that is already loaded, so the pin holds
whichever of numpy, scipy and socfem is imported first.  An explicit
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` leaves OpenBLAS's own
choice in place.
"""

import ctypes
import os
from pathlib import Path

import numpy
import scipy

# (package, bundled library glob, set_num_threads symbol)
_OPENBLAS = (
    (numpy, "libscipy_openblas64_*.so*", "scipy_openblas_set_num_threads64_"),
    (scipy, "libscipy_openblas-*.so*", "scipy_openblas_set_num_threads"),
)


def pin_threads() -> None:
    """Set both bundled OpenBLAS pools to one thread, unless the environment chose."""
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    for package, pattern, setter in _OPENBLAS:
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in libs.glob(pattern):
            set_threads = getattr(ctypes.CDLL(str(path)), setter)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
