"""Print the peak memory of one ``socfem`` CLI run.

    python3 tools/peak_memory.py <socfem subcommand and flags...>

Imports ``socfem.cli``, starts ``tracemalloc``, runs the CLI's ``main`` on
the given arguments in this process, and prints two lines: the
``tracemalloc`` peak of the run (Python and numpy allocations made after
the imports) and the process's peak resident set size (``ru_maxrss``,
imports included).  Run it in a fresh interpreter, since the peak RSS is
the process's.  Without ``--output-dir`` the run writes into a temporary
folder, removed on exit.  The exit status is the CLI's.  Only the stdlib
and socfem are used.
"""

from __future__ import annotations

import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from socfem.cli import main  # noqa: E402


def run(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as folder:
        if "--output-dir" not in argv:
            argv = argv + ["--output-dir", str(Path(folder) / "out")]
        tracemalloc.start()
        status = main(argv)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    print(f"tracemalloc peak: {peak / 2**20:.2f} MiB")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MiB")
    return status


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
