"""Load the OpenBLAS copies bundled with numpy and scipy with one thread.

socfem's dense work is small: implicit-Euler steps over a few hundred
right-hand-side columns and per-path reductions.  OpenBLAS helper threads
do not speed these up; they spin on the cores the solves need (on two
cores, the ``rates_mc_1d`` benchmark spent about 19 s of CPU in 12 s of
wall time with two threads, against about 5 s of both with one).  numpy
and scipy each ship their own OpenBLAS, so both are pinned.

OpenBLAS starts its helper threads when the library loads, and a helper
keeps spinning for a while after ``set_num_threads(1)``.  So unless the
environment chose, ``pin_threads`` sets ``OPENBLAS_NUM_THREADS=1`` only
while it imports numpy and loads both libraries, and removes it again:
a library loaded then starts no helper at all.  ``set_num_threads(1)``
still covers a copy that was loaded before socfem was imported (numpy
imported first); ``ctypes.CDLL`` returns the copy that is already
loaded, so the pin holds whichever of numpy, scipy and socfem comes
first.  An explicit ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` (an
empty value counts as unset) leaves OpenBLAS's own choice in place.
"""

import ctypes
import os
import sys
from pathlib import Path

_ENV = "OPENBLAS_NUM_THREADS"

# (package, bundled library glob, set_num_threads symbol)
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_set_num_threads"),
)


def pin_threads() -> None:
    """Import numpy and load both bundled OpenBLAS pools with one thread,
    unless the environment chose."""
    if os.environ.get(_ENV) or os.environ.get("OMP_NUM_THREADS"):
        return
    os.environ[_ENV] = "1"
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401

        for name, pattern, setter in _OPENBLAS:
            libs = Path(sys.modules[name].__file__).parent.parent / f"{name}.libs"
            for path in libs.glob(pattern):
                set_threads = getattr(ctypes.CDLL(str(path)), setter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
    finally:
        del os.environ[_ENV]
