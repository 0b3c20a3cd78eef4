"""Count the code lines and module-docstring lines of each ``src/socfem``
module, and the words of README.md.

    python3 tools/code_lines.py [package folder]

A code line is a physical line that holds a token other than a comment, a
line break or indentation, and that lies outside every docstring (the
first statement of a module, class or function when it is a string
literal).  Blank lines, comment lines and docstrings are not counted; a
multi-line string that is not a docstring counts every line it spans.
The docstring column counts the lines the module docstring spans.
Prints one ``module code docstring`` row per module, sorted by name, then
the totals, then the word count (whitespace-separated words, as ``wc -w``
counts them) of the README.md two folders up from the package.
Print-only; only the stdlib is used (``ast`` and ``tokenize``).
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


def docstring(node: ast.AST) -> ast.Expr | None:
    """The docstring statement of a module, class or function node, if any."""
    first = node.body[0] if node.body else None
    if (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        return first
    return None


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = docstring(node)
            if doc is not None:
                lines.update(range(doc.lineno, doc.end_lineno + 1))
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


def module_docstring_lines(path: Path) -> int:
    """The number of lines the module docstring at ``path`` spans, 0 without one."""
    doc = docstring(ast.parse(path.read_bytes(), filename=str(path)))
    return 0 if doc is None else doc.end_lineno - doc.lineno + 1


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {
        path.name: (code_lines(path), module_docstring_lines(path))
        for path in sorted(package.glob("*.py"))
    }
    width = max(map(len, counts))
    print(f"{'module':<{width}} {'code':>5} {'docstring':>9}")
    for name, (code, doc) in counts.items():
        print(f"{name:<{width}} {code:>5} {doc:>9}")
    code, doc = (sum(column) for column in zip(*counts.values()))
    print(f"{'total':<{width}} {code:>5} {doc:>9}")
    readme = package.resolve().parents[1] / "README.md"
    if readme.is_file():
        print(f"README.md words {len(readme.read_text().split())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
