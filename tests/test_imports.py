"""Import hygiene of the package, checked on the syntax tree (no linter is
needed): every imported name is used, and no module reaches into another
affhecke module for one of its private (underscore) names."""

import ast
import pathlib

import pytest

import affhecke

MODULES = sorted(pathlib.Path(affhecke.__file__).parent.glob("*.py"))


def imports(tree):
    """(bound name, imported name, relative level, line) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, 0, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.level, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_or_private_imports(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for bound, name, level, line in imports(tree):
        if level and name.startswith("_"):
            pytest.fail(f"{path.name}:{line} imports the private name {name}")
        # a re-export of the package namespace is marked as such
        if bound not in used and "noqa: F401" not in lines[line - 1]:
            pytest.fail(f"{path.name}:{line} imports {bound} but never uses it")
