"""Count the code lines of each ``src/socfem`` module.

    python3 tools/code_lines.py [package folder]

A code line is a physical line that holds a token other than a comment, a
line break or indentation, and that lies outside every docstring (the
first statement of a module, class or function when it is a string
literal).  Blank lines, comment lines and docstrings are not counted; a
multi-line string that is not a docstring counts every line it spans.
Prints one ``module lines`` row per module, sorted by name, then the
total.  Only the stdlib is used (``ast`` and ``tokenize``).
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "socfem"
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the module at ``path``."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = {
        row
        for tok in tokens
        if tok.type not in _LAYOUT
        for row in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - docstring_lines(ast.parse(path.read_bytes(), filename=str(path))))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
