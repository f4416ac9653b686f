"""Source hygiene of src/xveckit: no dead imports, no unreferenced private
helpers, no undefined name in __all__, no package import deferred into a
function. Deleting code tends to leave the first three behind; this reads
every module with ast, so it runs nothing of the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "xveckit"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Every bare name read or written, and every attribute name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_module_is_read():
    assert {"__init__.py", "binio.py", "model.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = MODULES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used - _exported(tree)) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_exported_names_are_defined(module):
    # a name left in __all__ after its definition goes breaks only
    # `from module import *`, which nothing else runs
    tree = MODULES[module]
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= _imported(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert sorted(_exported(tree) - defined) == []


def test_private_helpers_are_referenced():
    referenced = set().union(*(_referenced(tree) for tree in MODULES.values()))
    unreferenced = [f"{module}: {node.name}" for module, tree in MODULES.items()
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in referenced]
    assert unreferenced == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_package_imports_are_at_module_level(module):
    # stats imports only autodiff and errors, so no module of the package
    # needs a deferred import to break a cycle
    nested = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import ..."
              for top in MODULES[module].body if not isinstance(top, (ast.Import, ast.ImportFrom))
              for node in ast.walk(top)
              if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert nested == []
