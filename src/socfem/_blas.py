"""Load the OpenBLAS copies bundled with numpy and scipy with one thread.

socfem's dense work is small: implicit-Euler steps over a few hundred
right-hand-side columns and per-path reductions, too small to gain from
BLAS threads, whose idle helpers spin on the cores the solves need.  numpy
and scipy each ship their own OpenBLAS, so both are pinned.  The pin saves
CPU time and import time, not wall time.  Measured with
``perfbench/child.py`` on each benchmark workload's seed-7 command on a
2-core machine, medians of 3 alternating pairs, pinned against
``OPENBLAS_NUM_THREADS=2`` (OpenBLAS's own choice there):

    workload      wall, pinned / 2 threads   CPU, pinned / 2 threads
    rates_mc_1d   0.333 / 0.347 s            0.333 / 0.387 s
    table_2d      1.414 / 1.440 s            1.414 / 1.467 s
    table_mc_1d   0.031 / 0.039 s            0.031 / 0.066 s

and ``import socfem.cli`` took 0.054-0.059 s pinned against 0.072-0.105 s.

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
