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
