"""Dead code in the package, found with the standard library's ``ast``: an
import that its module never uses, and a private module-level function or
class that no package module refers to."""

import ast
from pathlib import Path

import pytest

import perscert

PACKAGE = Path(perscert.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def imported_names(tree: ast.Module) -> dict:
    """Each name an import binds, to its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def used_names(tree: ast.Module) -> set:
    """Names read as variables, also inside annotations written as strings."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return out


def referenced_names(tree: ast.Module) -> set:
    """Names read as variables or attributes, or imported from another
    module."""
    out = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    unused = {n: line for n, line in imported_names(tree).items() if n not in used_names(tree)}
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_function_and_class_is_referenced():
    referenced = set().union(*map(referenced_names, TREES.values()))
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not orphans, f"private definitions nothing refers to: {orphans}"
