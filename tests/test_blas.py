"""``import socfem`` pins both bundled OpenBLAS pools to one thread, and
the outputs do not depend on the thread count.

Each case runs in a fresh interpreter, because the pin is process-wide.
The probe imports numpy and scipy's solvers and wakes numpy's pool before
socfem is imported, then reads the thread counts back through each
library's own getter, before and after ``import socfem``.  When socfem is
imported first, OpenBLAS loads with one thread and starts no helper at
all, so the process keeps a single thread.
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


THREADS_PROBE = """
import json, os
import socfem
print(json.dumps([len(os.listdir("/proc/self/task")), "OPENBLAS_NUM_THREADS" in os.environ]))
"""


def test_import_first_starts_no_helper_thread():
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads with")
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_PROBE], env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    threads, env_left = json.loads(proc.stdout)
    assert threads == 1
    assert not env_left


# criterion 5's Monte Carlo cell, as the benchmark's table_mc_1d workload runs it
TABLE_MC_1D = [
    "constraint-table", "--problem", "example1", "--rule", "tau=h", "--h", "1/40",
    "--delta", "0.2,0.1,-0.1,-0.2", "--estimator", "monte-carlo", "--paths", "1024",
    "--seed", "7",
]
RUN_CLI = "import sys; from socfem.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env(**env_overrides) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return env


def _probe(**env_overrides):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=_child_env(**env_overrides),
        capture_output=True, text=True, timeout=120,
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


def _table_mc_1d_outputs(out: Path, **env_overrides) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *TABLE_MC_1D, "--output-dir", str(out)],
        env=_child_env(**env_overrides), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    pinned = _table_mc_1d_outputs(tmp_path / "pinned")
    two = _table_mc_1d_outputs(tmp_path / "two", OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    assert sorted(pinned) == ["table.csv", "table_long.csv"]
    assert two == pinned
