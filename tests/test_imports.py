"""Import and definition hygiene of the package, checked on the syntax tree
(no linter is needed): every imported name is used, no module reaches into
another affhecke module for one of its private (underscore) names, and no
definition is left orphaned."""

import ast
import pathlib

import pytest

import affhecke

MODULES = sorted(pathlib.Path(affhecke.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def definitions(tree):
    """(name, node, is a method) of every function and class, nested ones
    included; dunders are left out."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                yield node.name, node, isinstance(parent, ast.ClassDef)


def parsed_sources():
    """path -> syntax tree of every Python file in src/, tests/ and bench/."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def test_no_orphaned_definitions():
    # every function, class and method of the package is referenced outside
    # its own definition somewhere in src/, tests/ or bench/: a method by an
    # attribute, anything else by a name or an attribute
    trees = parsed_sources()
    uses = {}  # (name, is an attribute) -> [(path, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault((node.id, False), []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault((node.attr, True), []).append((path, node.lineno))
    orphans = []
    for path in sorted((ROOT / "src" / "affhecke").glob("*.py")):
        for name, node, method in definitions(trees[path]):
            kinds = (True,) if method else (True, False)
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for kind in kinds
                for where, line in uses.get((name, kind), ())
            ):
                orphans.append(f"{path.name}:{node.lineno} {name}")
    assert not orphans, f"defined but never referenced: {orphans}"


def _passed(call, index, name):
    """Whether a call passes the parameter at this position or keyword; a
    *args or **kwargs call counts as passing every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return (index is not None and len(call.args) > index) or any(
        k.arg is None or k.arg == name for k in call.keywords
    )


def test_no_single_valued_defaults():
    # every defaulted parameter of a function of the package is passed by
    # some call in src/, tests/ or bench/: a default that no caller
    # overrides is a constant, not a choice.  Calls are matched by name (the
    # class name for __init__); a method's positions skip self or cls.
    trees = parsed_sources()
    calls = {}  # called name -> [ast.Call]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unused = []
    for path in sorted((ROOT / "src" / "affhecke").glob("*.py")):
        for parent in ast.walk(trees[path]):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, ast.FunctionDef):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                bound = isinstance(parent, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list
                )
                name = parent.name if node.name == "__init__" else node.name
                defaulted = [
                    (i - bound, a.arg)
                    for i, a in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)
                ] + [
                    (None, a.arg)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
                for index, arg in defaulted:
                    if not any(
                        _passed(c, index, arg) for c in calls.get(name, ())
                    ):
                        unused.append(f"{path.name}:{node.lineno} {node.name}({arg})")
    assert not unused, f"defaults that no call overrides: {unused}"


# (module, function) -> (parameters it may leave unread, why)
UNREAD_ALLOWED = {
    ("homalg.py", "is_isomorphism"): (
        {"src", "tgt"}, "the summand labels are part of the call that bench/ makes"),
    ("cli.py", "_suite_d2"): ({"args"}, "the run(n, args) protocol of cli.SUITES"),
    ("cli.py", "_suite_phi_n2"): ({"args"}, "the run(n, args) protocol of cli.SUITES"),
    ("cli.py", "<lambda>"): ({"n", "args"}, "the run(n, args) protocol of cli.SUITES"),
}


def test_no_unused_parameters():
    # every parameter of a function or lambda of the package is read by it
    # (or by a function nested in it), or by a same-named method of another
    # class in its module, which shares the protocol; self and cls are left
    # out
    unread = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = []  # (name, node, parameters, is a method)
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    continue
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a]
                method = isinstance(parent, ast.ClassDef)
                if method and not any(
                    getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
                ):
                    params = params[1:]
                read = {
                    n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                name = getattr(node, "name", "<lambda>")
                functions.append((name, params, read, method))
        read_by_method = {}
        for name, _, read, method in functions:
            if method:
                read_by_method.setdefault(name, set()).update(read)
        for name, params, read, method in functions:
            allowed = UNREAD_ALLOWED.get((path.name, name), (set(), ""))[0]
            for param in params:
                if param in read or param in allowed:
                    continue
                if method and param in read_by_method[name]:
                    continue
                unread.append(f"{path.name} {name}({param})")
    assert not unread, f"parameters that are never read: {unread}"
