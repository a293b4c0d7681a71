"""Module boundaries: no vortexlab module imports another's private names or
reads a private attribute of another object, so each helper has one home
and a public name where it is shared."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexlab"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "vortexlab":
            continue
        for alias in node.names:
            name = alias.name
            if _is_private(name):
                yield (f"{path.name}:{node.lineno}: from "
                       f"{'.' * node.level}{module} import {name}")


def test_no_module_imports_a_private_name():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _private_imports(path)]
    assert found == []


def _private_attributes(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            yield f"{path.name}:{node.lineno}: {ast.unparse(node)}"


def test_no_module_reads_another_objects_private_attribute():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _private_attributes(path)]
    assert found == []


ROOT = SRC.parents[1]


def _defaulted_parameters(path):
    """(where, name, parameters, parameters with a default) of every
    function in a module; ``self``/``cls`` dropped, ``__init__`` named
    after its class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args]
        defaulted = params[len(params) - len(a.defaults):]
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
        if id(node) in owner and params[:1] in (["self"], ["cls"]):
            params = params[1:]
        name = node.name
        if name == "__init__" and id(node) in owner:
            name = owner[id(node)].name
        if defaulted:
            yield f"{path.name}:{node.lineno}", name, params, defaulted


def _passed_arguments(paths):
    """Per called name: the keywords passed and the most positional
    arguments passed by any call (a ``*args`` call passes them all)."""
    keywords, positional = {}, {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg is not None)
            n = (float("inf") if any(isinstance(a, ast.Starred)
                                     for a in node.args) else len(node.args))
            positional[name] = max(positional.get(name, 0), n)
    return keywords, positional


def test_every_default_is_passed_by_some_call():
    """A parameter with a default that no call in src/, tests/ or scripts/
    passes is a knob nobody turns: its value belongs in a constant."""
    callers = [p for d in ("src", "tests", "scripts")
               for p in sorted((ROOT / d).rglob("*.py"))]
    keywords, positional = _passed_arguments(callers)
    dead = [f"{where}: {name}({p})"
            for path in sorted(SRC.glob("*.py"))
            for where, name, params, defaulted in _defaulted_parameters(path)
            for p in defaulted
            if p not in keywords.get(name, ())
            and not (p in params
                     and params.index(p) < positional.get(name, 0))]
    assert dead == []


def test_every_function_is_reached_from_src_or_scripts():
    """A function or method that nothing in src/ or scripts/ names runs
    only under the tests: it is dead code, or a test instrument that
    belongs in tests/oracles.py."""
    names = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "scripts").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    unreached = [f"{path.name}:{node.lineno}: {node.name}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)
                 and not (node.name.startswith("__")
                          and node.name.endswith("__"))
                 and node.name not in names]
    assert unreached == []


def _scipy_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] == "scipy":
                yield f"{path.name}:{node.lineno}: {module}"


def test_no_module_imports_scipy():
    """numpy is the package's one dependency: scipy serves the oracles in
    tests/ only, so no module imports it, inside a function or not."""
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _scipy_imports(path)]
    assert found == []
