"""Every function, method and class in ``src/socfem`` has a user in
``src/socfem``, and no module imports another's private names.

A definition counts as used when its name appears as a ``Name`` or an
``Attribute`` anywhere in the package.  Imports and ``__all__`` entries
are not uses (they name a definition without running it), so a public
export that only tests call is flagged.  Dunder methods run implicitly and
are exempt.

An underscore name is private to its module: ``from .x import _y`` in a
sibling is flagged.  ``from . import _blas`` imports a module, not a name
from one, and stays allowed.
"""

import ast
from pathlib import Path

import socfem

SOURCES = sorted(Path(socfem.__file__).parent.glob("*.py"))

# name -> why it stays without a caller in the package
ALLOWED = {
    "lsmc_z_estimate": "acceptance criterion 9 checks the regression Z-estimator itself",
    "load_from_values": "perfbench/layers.py hooks it to count load assembly",
    "generate_state": (
        "paths._PathState implements numpy's ISeedSequence protocol; PCG64 calls it"
    ),
}


def _definitions_and_uses():
    defined, used = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_definition_has_a_user_in_the_package():
    defined, used = _definitions_and_uses()
    unused = sorted(
        f"{name} ({where})"
        for name, where in defined.items()
        if name not in used and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unused, f"defined in src/socfem but used nowhere there: {unused}"


def test_allowed_names_are_still_defined_and_unused():
    defined, used = _definitions_and_uses()
    assert {name for name in ALLOWED if name in defined and name not in used} == set(ALLOWED)


def test_no_module_imports_a_private_name_from_a_sibling():
    imports = sorted(
        f"{path.name}:{node.lineno} from {'.' * node.level}{node.module} import {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module is not None
        and (node.level > 0 or node.module.split(".")[0] == "socfem")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert not imports, f"private names imported across src/socfem modules: {imports}"
