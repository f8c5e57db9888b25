"""Layering: the module families and their shared core read coefficients
as integer jets and (half-derivative, value) pairs, never as whole rational
functions; only ``coeffs`` and the oracles import ``gtmod.ratfun``."""

import ast
from pathlib import Path

import pytest

import gtmod

PACKAGE = Path(gtmod.__file__).resolve().parent


def _imported_modules(path: Path) -> set[str]:
    """Every module an import statement in the file names, relative imports
    resolved against the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "gtmod" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("name", ["core", "singular", "generic", "finite"])
def test_action_path_does_not_import_ratfun(name):
    assert "gtmod.ratfun" not in _imported_modules(PACKAGE / f"{name}.py")


def test_the_check_sees_an_import_of_ratfun():
    assert "gtmod.ratfun" in _imported_modules(PACKAGE / "coeffs.py")
