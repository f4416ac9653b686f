"""Source hygiene of src/xveckit: no dead imports, no unreferenced private
helpers, no undefined name in __all__, no package import deferred into a
function, no private name imported across modules. Deleting code tends to
leave the first three behind; this reads every module with ast, so it
runs nothing of the package.
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
    # the modules import each other in one order (errors and binio first,
    # then stats, autodiff, data, model, metrics, backend and cli), so no
    # module of the package needs a deferred import to break a cycle
    nested = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import ..."
              for top in MODULES[module].body if not isinstance(top, (ast.Import, ast.ImportFrom))
              for node in ast.walk(top)
              if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert nested == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_private_name_is_imported_from_another_module(module):
    # a _name is its module's own: another module that needs it needs the
    # rule it states, which then belongs with that module's public names
    private = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(MODULES[module])
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("xveckit"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


CALLERS = [path for folder in ("src", "tests", "perfbench")
           for path in sorted((SRC.parents[1] / folder).rglob("*.py"))]


def _defaulted(tree: ast.Module):
    """(name, parameter, position) of every parameter with a default on a
    function or method, position counting the call's positional arguments
    (a method's self or cls is not one) and None for a keyword-only one; a
    method's name is its class's when it is __init__."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                name = owner if bound and child.name == "__init__" else child.name
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(args.defaults):
                        yield name, arg.arg, i - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None
                yield from walk(child, None)
            else:
                yield from walk(child, owner)
    yield from walk(tree, None)


def _calls() -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per called name (a function's, or an attribute's), each call's count
    of positional arguments, its keyword names and whether it unpacks
    *args or **kwargs."""
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def test_every_default_is_passed_by_some_call():
    # an option no call in the package, its tests or its benchmark sets is
    # code nothing runs; this reads every call with ast
    calls = _calls()
    unset = [f"{module}: {name}({param})" for module, tree in MODULES.items()
             for name, param, position in _defaulted(tree)
             if not any(starred or param in keywords
                        or (position is not None and n_positional > position)
                        for n_positional, keywords, starred in calls.get(name, []))]
    assert unset == []


def _set_names(tree: ast.AST) -> set[str]:
    """Every name a file sets as a value: a keyword argument, a string key
    of a dict literal (kwargs built as a dict) or a `name =` line of a
    string constant (config text)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(k.value for k in node.keys
                         if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(line.partition("=")[0].strip()
                         for line in node.value.splitlines() if "=" in line)
    return names


def test_every_config_key_is_set_by_some_test_or_benchmark():
    # a RunConfig field that no test and no benchmark run sets to a value of
    # its own is a key only its default ever reaches
    run_config = next(node for node in MODULES["cli.py"].body
                      if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    fields = [node.target.id for node in run_config.body if isinstance(node, ast.AnnAssign)]
    set_names = set().union(*(_set_names(ast.parse(path.read_text(encoding="utf-8")))
                              for path in CALLERS if SRC not in path.parents))
    assert [name for name in fields if name not in set_names] == []


def _text_codec_uses(tree: ast.Module) -> list[str]:
    """Each .decode( call, encoding= keyword and text-mode open (open(),
    Path.open, read_text, write_text) of a module. A mode that is not a
    literal string holding "b" counts as text."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "decode":
            found.append(f"line {node.lineno}: .decode(")
        found.extend(f"line {node.lineno}: encoding=" for k in node.keywords
                     if k.arg == "encoding")
        if name in ("read_text", "write_text"):
            found.append(f"line {node.lineno}: {name}(")
        elif name == "open":
            # open(file, mode) takes the mode second, Path(file).open(mode) first
            at = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else None)
            if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                found.append(f"line {node.lineno}: open in text mode")
    return found


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"binio.py"}))
def test_only_binio_decodes_or_opens_text(module):
    # one codec: text is read through binio.open_text and written through
    # binio.atomic_write, both utf-8 whatever the locale
    assert _text_codec_uses(MODULES[module]) == []


def test_the_text_codec_check_sees_binio():
    # the check above passes on empty ground unless it finds binio's own
    # decoders and text opens
    found = _text_codec_uses(MODULES["binio.py"])
    assert any(".decode(" in f for f in found) and any("encoding=" in f for f in found)
    assert any("text mode" in f for f in found)
