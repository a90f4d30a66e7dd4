"""The package's layering: each module imports only the layers below it, and
each name only from the module that defines it."""

import ast
import importlib.util
from pathlib import Path

import pytest

import dnls_hierarchy

PACKAGE = Path(dnls_hierarchy.__file__).parent
TESTS = Path(__file__).parent

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


def test_package_reexports_nothing():
    # Each name has one import path, its layer module: the package binds
    # only its docstring and __version__.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    bound = [target.id for node in tree.body[1:] for target in node.targets]
    assert bound == ["__version__"]


def _defined_names(path: Path) -> set[str]:
    """What a module binds itself: its defs, classes and top-level
    assignments, and its submodules; not what it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = {p.stem for p in path.parent.glob("*.py")} if path.name == "__init__.py" else set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


@pytest.mark.parametrize("path", sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_each_name_is_imported_from_its_module(path):
    # A name is public when it has no leading underscore, and has one import
    # path: the module that defines it.  So no module keeps an __all__, and
    # no import (a star import included) goes through a module that only
    # imports the name itself.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "__all__" not in _defined_names(path)
    indirect = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # relative imports occur only inside the package
            module = node.module or ""
        elif node.module.partition(".")[0] == PACKAGE.name:
            module = node.module.partition(".")[2]
        else:
            continue
        defined = _defined_names(PACKAGE / f"{module or '__init__'}.py")
        indirect += [f"{module or PACKAGE.name}.{a.name}" for a in node.names if a.name not in defined]
    assert indirect == []


def test_every_traced_name_is_where_the_tracer_looks():
    # The benchmark's tracer (bench/spans.py, loaded read only) wraps
    # module attributes and methods from a class's own __dict__; a name
    # moved into a base class or a helper would stop its span.
    spec = importlib.util.spec_from_file_location("spans", TESTS.parent / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {name: importlib.import_module(f"{PACKAGE.name}.{name}") for name in ALLOWED}
    assert [entry for entry in spans.FUNCTIONS if not hasattr(modules[entry[1]], entry[2])] == []
    assert [entry for entry in spans.METHODS
            if entry[3] not in vars(getattr(modules[entry[1]], entry[2]))] == []
