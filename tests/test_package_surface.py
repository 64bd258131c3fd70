"""Every top-level function in ``src`` is used: called from ``src`` or
exported by the package.  A helper that only the tests need lives in
``tests/oracle.py`` instead."""

import ast
from pathlib import Path

import nctorus

PACKAGE = Path(nctorus.__file__).parent


def test_every_src_function_has_a_caller_or_an_export():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    exported = set(nctorus.__all__)
    unused = [f"{module}.{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name not in referenced | exported]
    assert unused == []
