"""The README's library examples run as written, and the README and the
module docstrings leave each module's design to that module.

The README's ```python blocks run in order in one namespace, as a reader
pastes them, so an example that calls a removed function or passes a
removed argument fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "socfem"

# an identifier that starts with an underscore, as a word of its own or
# after a dot (``spde._row_sweep``)
PRIVATE = re.compile(r"(?<!\w)_+[A-Za-z]\w*")


def test_python_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].converged
    assert "ErrorReport(" in capsys.readouterr().out


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds: its functions, classes, methods, assigned
    names and assigned attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def _private(text: str) -> set[str]:
    """The underscore-prefixed names in ``text``, dunders (``__init__``) aside."""
    return {
        name for name in PRIVATE.findall(text)
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_each_fact_lives_in_the_module_that_owns_it():
    """The README's Layout table has one row per public module and names no
    private name, and no module docstring names another module's private
    name: a private name is described only where it is defined."""
    readme = README.read_text()
    problems = []

    layout = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `socfem\.(\w+)` +\|", layout, re.MULTILINE)
    public = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.name.startswith("_"))
    if sorted(rows) != public:
        problems.append(f"Layout rows {sorted(rows)} != public modules {public}")

    problems += [f"README names {name}" for name in sorted(_private(readme))]

    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    defined = {module: _defined(tree) for module, tree in trees.items()}
    for module, tree in sorted(trees.items()):
        own = defined[module]
        for name in sorted(_private(ast.get_docstring(tree) or "") - own):
            owners = sorted(other for other, names in defined.items() if name in names)
            if owners:
                problems.append(f"{module}'s docstring names {name} of {', '.join(owners)}")
    assert not problems, "\n".join(problems)
