"""``import socfem.cli`` stays light, and a command imports nothing more.

Every experiment runs in a fresh interpreter, so the import is part of its
cost.  socfem loads scipy's two compiled modules from their files (see
``socfem.fem``), so the package ``__init__`` of ``scipy.sparse`` and
``scipy.linalg``, and the numpy clone they pull in (``numpy.f2py``), never
run.  A module imported lazily inside a command would move its cost out of
the import and into the command's wall time, so each of the four commands
is run at small settings and must leave ``sys.modules`` as it found it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.sparse", "scipy.linalg", "numpy.f2py")
COMMANDS = [
    ["solve", "--problem", "example1", "--h", "1/10", "--rule", "tau=h",
     "--estimator", "monte-carlo", "--paths", "16", "--seed", "3"],
    ["convergence", "--problem", "example1", "--rule", "tau=h", "--h", "1/6,1/8",
     "--paths", "16"],
    ["constraint-table", "--problem", "example2", "--rule", "tau=h/sqrt2", "--h", "1/4",
     "--delta", "1,-1"],
    ["verify", "--problem", "example1", "--samples", "20"],
]

PROBE = """
import json, sys, tempfile
import socfem.cli as cli

heavy = sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules)
added = {}
for argv in json.loads(sys.argv[2]):
    before = set(sys.modules)
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(argv + ["--output-dir", out + "/run"])
    added[argv[0]] = [code, sorted(set(sys.modules) - before)]
print(json.dumps([heavy, added]))
"""


@pytest.fixture(scope="module")
def probe() -> tuple[list, dict]:
    """(heavy modules present after the import, command -> [exit code, modules added])."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(HEAVY), json.dumps(COMMANDS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_runs_no_scipy_package_initialiser(probe):
    heavy, _ = probe
    assert heavy == []


def test_commands_import_no_module(probe):
    _, added = probe
    assert added == {argv[0]: [0, []] for argv in COMMANDS}
