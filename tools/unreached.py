"""List the lines of ``src/socfem`` that the tier-1 suite never runs.

    python3 tools/unreached.py [pytest args...]

Runs the tier-1 suite (``tests/``, or the given pytest arguments) in this
process under a ``sys.settrace`` line tracer that watches only the files of
``src/socfem``, then lists every executable line that no test reached.  A
line is executable when the compiler gives it bytecode (``co_lines`` of the
module's code objects); a function's first line counts as reached when the
function is called.  Only the stdlib is used.

Code that runs only in a child process (the tests that start a fresh
interpreter) is invisible to the tracer.  Such lines are listed in
``ALLOWED`` with the reason and the test that runs them; nothing else may
be listed there.  Exit status: 0 when the suite passes and every unreached
line is allowed; 1 when a line is unreached and not allowed, or an allowed
line is reached or gone (a stale entry); otherwise the suite's own status.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "socfem"

# (file, stripped source line) -> why only a child process runs it
ALLOWED = {
    ("_blas.py", "return"): (
        "an explicit OPENBLAS_NUM_THREADS leaves the pools alone; "
        "tests/test_blas.py sets it only in a fresh interpreter"
    ),
    ("cli.py", "sys.exit(main())"): (
        "the `python -m socfem.cli` entry; tests/test_cli.py runs it as a subprocess"
    ),
}


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module at ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineTracer:
    """Records (file, line) for every line run in a file under ``root``."""

    def __init__(self, root: Path):
        self.root = str(root)
        self.hits: set[tuple[str, int]] = set()

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.root):
            return None
        self.hits.add((filename, frame.f_code.co_firstlineno))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def unreached(hits: set[tuple[str, int]]) -> dict[tuple[str, str], list[int]]:
    """(file, stripped line) -> line numbers never hit, for every module."""
    out: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in hits:
                out.setdefault((path.name, source[line - 1].strip()), []).append(line)
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if "socfem" in sys.modules:
        raise SystemExit("socfem was imported before the tracer started")
    import pytest

    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = unreached(tracer.hits)
    # an allowed entry covers one line: a second unreached line with the same text is not allowed
    bad = {key: lines for key, lines in missed.items() if key not in ALLOWED or len(lines) > 1}
    stale = sorted(key for key in ALLOWED if key not in missed)
    for (name, text), lines in sorted(missed.items()):
        tag = "UNREACHED" if (name, text) in bad else "allowed"
        print(f"{tag}: src/socfem/{name}:{','.join(map(str, lines))}: {text}")
    for name, text in stale:
        print(f"STALE allowlist entry (reached or gone): {name}: {text}")
    if status != 0:
        return int(status)
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
