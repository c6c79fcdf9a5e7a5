"""Package hygiene: every module uses every name it imports, and every
unexported top-level definition is used somewhere in the package."""

import ast
from collections import Counter
from pathlib import Path

import smcsp

SRC = Path(__file__).resolve().parent.parent / "src" / "smcsp"


def unused_imports(path: Path) -> list:
    """Names bound by an import in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_package_modules_use_every_import():
    # __init__.py imports to re-export, so it is left out
    found = {path.name: unused_imports(path)
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def _references(node) -> Counter:
    """How often each name is read, as a name or an attribute, in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_unexported_definition_is_used():
    # a top-level def or class that smcsp.__all__ does not export must be
    # referenced somewhere in the package outside its own body
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()),
                     Counter())
    unused = [f"{name}:{node.name}"
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in smcsp.__all__
              and everywhere[node.name] == _references(node)[node.name]]
    assert unused == []
