"""Module boundaries: no vortexlab module or script imports a module's
private names, and no module reads a private attribute of another object,
so each helper has one home and a public name where it is shared."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexlab"
ROOT = SRC.parents[1]


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
                yield (f"{path.relative_to(ROOT)}:{node.lineno}: from "
                       f"{'.' * node.level}{module} import {name}")


def test_no_module_imports_a_private_name():
    """Nor does a script in scripts/: it reaches the package through
    public names only."""
    found = [hit for path in [*sorted(SRC.glob("*.py")),
                              *sorted((ROOT / "scripts").glob("*.py"))]
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


def _calls(paths):
    """Per called name: (positional arguments, keywords) of each call (a
    ``*args`` call passes every positional argument)."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            n = (float("inf") if any(isinstance(a, ast.Starred)
                                     for a in node.args) else len(node.args))
            calls.setdefault(name, []).append(
                (n, {k.arg for k in node.keywords if k.arg is not None}))
    return calls


def _passes(call, p, params):
    n, keywords = call
    return p in keywords or p in params and params.index(p) < n


def _defaults_by_calls(passed):
    """``where: name(parameter)`` of every defaulted parameter of a src/
    function for which ``passed(calls that pass it, calls)`` holds, over
    the calls in src/, tests/ and scripts/, matched by name."""
    calls = _calls([p for d in ("src", "tests", "scripts")
                    for p in sorted((ROOT / d).rglob("*.py"))])
    return [f"{where}: {name}({p})"
            for path in sorted(SRC.glob("*.py"))
            for where, name, params, defaulted in _defaulted_parameters(path)
            for p in defaulted
            if passed(sum(_passes(c, p, params) for c in calls.get(name, ())),
                      len(calls.get(name, ())))]


def test_every_default_is_passed_by_some_call():
    """A parameter with a default that no call in src/, tests/ or scripts/
    passes is a knob nobody turns: its value belongs in a constant."""
    assert _defaults_by_calls(lambda passing, total: passing == 0) == []


def test_no_default_is_overridden_by_every_call():
    """A parameter with a default that every call passes is a value no
    caller takes: the parameter is required."""
    assert _defaults_by_calls(
        lambda passing, total: passing == total > 0) == []


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


def _is_number_literal(node):
    """A default written as numbers alone: 1e-9, -1e-8 or 1e-9 * 0.1."""
    parts = list(ast.walk(node))
    return all(isinstance(n, (ast.Constant, ast.UnaryOp, ast.BinOp,
                              ast.unaryop, ast.operator)) for n in parts) \
        and any(isinstance(n, ast.Constant) and type(n.value) in (int, float)
                for n in parts)


def test_no_tol_parameter_defaults_to_a_number():
    """Each default tolerance has one home, a named constant in
    ``solvers`` (or ``bogomolnyi.CHANGE_TOL``), and the CLI passes
    ``tolerances.residual`` down: a ``tol`` parameter whose default is a
    number of its own would let a solve or a bound ignore that key."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = a.posonlyargs + a.args
            pairs = list(zip(params[len(params) - len(a.defaults):],
                             a.defaults))
            pairs += [(p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
            found += [f"{path.name}:{node.lineno}: {node.name}"
                      f"(tol={ast.unparse(d)})" for p, d in pairs
                      if p.arg == "tol" and _is_number_literal(d)]
    assert found == []


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


def _declared_all(path):
    """The names of a module's ``__all__``, or None if it declares none."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return None


def _package_imports(path):
    """(module file, name, where) of each name that ``path`` imports from a
    vortexlab module, relatively or by its full name."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "vortexlab":
                continue
            parts = parts[1:]
        elif node.level != 1 or path.parent != SRC:
            continue
        target = SRC / ("/".join(p for p in parts if p) or "__init__")
        for alias in node.names:
            if not (SRC / (alias.name + ".py")).exists():  # not a module
                yield (target.with_suffix(".py"), alias.name,
                       f"{path.relative_to(ROOT)}:{node.lineno}")


def test_every_imported_public_name_is_in_all():
    """A public name that a package module or a script imports from a
    package module with an ``__all__`` is part of that module's interface:
    its ``__all__`` lists it."""
    found = []
    for path in [*sorted(SRC.glob("*.py")),
                 *sorted((ROOT / "scripts").rglob("*.py"))]:
        for target, name, where in _package_imports(path):
            declared = _declared_all(target) if target.exists() else None
            if (declared is not None and not name.startswith("_")
                    and name not in declared):
                found.append(f"{where}: {name} from {target.stem}")
    assert found == []


def _unused_imports(path):
    """``where: name`` of each name an import in ``path`` binds that the
    module never reads and its ``__all__`` does not list."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= _declared_all(path) or set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        yield from (f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                    for name in names if name not in read)


def test_no_unused_imports():
    """Every name an import binds in src/, scripts/ or tests/ is read in
    its module or listed in its ``__all__``."""
    found = [hit for d in ("src", "scripts", "tests")
             for path in sorted((ROOT / d).rglob("*.py"))
             for hit in _unused_imports(path)]
    assert found == []
