"""``import socfem`` pins both bundled OpenBLAS pools to one thread.

Each case runs in a fresh interpreter, because the pin is process-wide.
The probe imports numpy and scipy's solvers and wakes numpy's pool before
socfem is imported, then reads the thread counts back through each
library's own getter, before and after ``import socfem``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import ctypes, json
from pathlib import Path
import numpy, scipy
import scipy.linalg, scipy.sparse.linalg

def threads():
    out = {}
    for package, pattern, getter in (
        (numpy, "libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_"),
        (scipy, "libscipy_openblas-*.so*", "scipy_openblas_get_num_threads"),
    ):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in libs.glob(pattern):
            get = getattr(ctypes.CDLL(str(path)), getter)
            get.argtypes, get.restype = [], ctypes.c_int
            out[package.__name__] = get()
    return out

a = numpy.ones((768, 768))
numpy.dot(a, a)
before = threads()
import socfem
print(json.dumps([before, threads()]))
"""


def _probe(**env_overrides):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    if set(after) != {"numpy", "scipy"}:
        pytest.skip(f"numpy/scipy do not both bundle OpenBLAS here (found {sorted(after)})")
    return before, after


def test_import_pins_both_pools_after_numpy_and_scipy():
    _, after = _probe()
    assert after == {"numpy": 1, "scipy": 1}


def test_explicit_environment_wins():
    before, after = _probe(OPENBLAS_NUM_THREADS="2")
    assert after == before
