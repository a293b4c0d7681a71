"""Module boundaries: no vortexlab module imports another's private names,
so each helper has one home and a public name where it is shared."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexlab"


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
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                yield (f"{path.name}:{node.lineno}: from "
                       f"{'.' * node.level}{module} import {name}")


def test_no_module_imports_a_private_name():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _private_imports(path)]
    assert found == []
