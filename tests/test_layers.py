"""The package's layering: each module imports only the layers below it."""

import ast
from pathlib import Path

import pytest

import dnls_hierarchy

PACKAGE = Path(dnls_hierarchy.__file__).parent

# module -> the sibling modules it may import; None means any of them.
ALLOWED = {
    "algebra": set(),
    "hierarchy": {"algebra"},
    "gauge": {"algebra", "hierarchy"},
    "spectral": {"algebra", "hierarchy"},
    "analysis": {"algebra", "hierarchy", "spectral"},
    "reference": {"algebra", "gauge", "hierarchy"},
    "cli": None,
}


def _relative_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module else (a.name for a in node.names))
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", [m for m, allowed in ALLOWED.items() if allowed is not None])
def test_module_imports_only_lower_layers(module):
    assert _relative_imports(module) - ALLOWED[module] == set()
