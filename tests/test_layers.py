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


def _sibling_imports(module: str) -> list[ast.ImportFrom]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def _relative_imports(module: str) -> set[str]:
    out = set()
    for node in _sibling_imports(module):
        out.update([node.module] if node.module else (a.name for a in node.names))
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


@pytest.mark.parametrize("module", [m for m, allowed in ALLOWED.items() if allowed is not None])
def test_module_imports_only_lower_layers(module):
    assert _relative_imports(module) - ALLOWED[module] == set()


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_no_private_name(module):
    # A sibling's underscored names are its own: a module that needs one
    # should get it through the sibling's public surface.
    private = [f"{node.module or '.'}.{a.name}" for node in _sibling_imports(module)
               for a in node.names if a.name.startswith("_")]
    assert private == []
