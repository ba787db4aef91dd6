"""Import and definition hygiene of the package, checked on the syntax tree
(no linter is needed): every name that the package or its tests import is
used, no module reaches into another affhecke module for one of its private
(underscore) names, every definition serves a verdict, and each arithmetic
defines what the package reads off one."""

import ast
import pathlib
import re

import pytest

import affhecke
from affhecke.homalg import BimoduleArithmetic, MatrixArithmetic, SignArithmetic

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


@pytest.mark.parametrize(
    "path", MODULES + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name
)
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


def parsed_sources():
    """path -> syntax tree of every Python file in src/, tests/ and bench/."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


# qualname -> why it stays although no verdict reaches it
UNREACHED_ALLOWED = {
    "bimod.is_bimodule_map": "bench/workloads.py checks loaded entries with it",
    "complexes.tau_equivariance_signs": "bench/workloads.py times it as an engine case",
    "homalg.Pseudocomplex.minimal_complex": (
        "bench/workloads.py times it; ROADMAP item 1 eliminates B_sF with it"),
    "homalg.Pseudocomplex.split_summand": (
        "ROADMAP item 1: the chain-level B_sF = N_{s} splits B_sB_s with it"),
    "complexes.build_M": "ROADMAP item 2: the complex M_{s+1} of twisted centrality",
    "complexes.m_sets": "ROADMAP item 2: the gradings of M_J, built by build_M",
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


# the nodes that open a scope of local names
_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_names(scope):
    """The names that a function, lambda or comprehension binds for itself:
    its parameters and the names it assigns outside the scopes and
    definitions nested in it, less those it declares global or nonlocal."""
    names, declared = set(), set()
    args = getattr(scope, "args", None)
    if args:
        names.update(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs)
        names.update(a.arg for a in (args.vararg, args.kwarg) if a)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Name) and not isinstance(cur.ctx, ast.Load):
            names.add(cur.id)
        elif isinstance(cur, ast.ExceptHandler) and cur.name:
            names.add(cur.name)
        elif isinstance(cur, (ast.Global, ast.Nonlocal)):
            declared.update(cur.names)
        if not (_is_def(cur) or isinstance(cur, _SCOPES)):
            stack.extend(ast.iter_child_nodes(cur))
    return names - declared


def module_aliases(tree, modules):
    """name -> module, for each name that an import in tree binds to one of
    the affhecke modules (``from . import m``, ``from affhecke import m``)."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, None), (0, "affhecke"))
        for alias in node.names
        if alias.name in modules
    }


def _read_names(node, aliases, bound=frozenset()):
    """(name, receiver, is called) of every name and attribute that a
    definition loads outside the bodies of the definitions nested in it; their
    decorators and defaults count as read here.  receiver is None for a bare
    name, the module for an attribute of a name in aliases (as module_aliases
    gives them), and "" for any other attribute.  A bare name that the
    function reading it binds (see _bound_names), or that bound holds for the
    functions enclosing it, is left out, and so is not a module receiver."""
    called = set()
    stack = [(node, bound)]
    while stack:
        cur, bound = stack.pop()
        if isinstance(cur, _SCOPES):
            bound = bound | _bound_names(cur)
        if isinstance(cur, ast.Call):
            called.add(id(cur.func))
        for child in ast.iter_child_nodes(cur):
            if _is_def(child):
                stack.extend((d, bound) for d in child.decorator_list)
                if isinstance(child, ast.FunctionDef):
                    stack.append((child.args, bound))
                continue
            load = isinstance(getattr(child, "ctx", None), ast.Load)
            if load and isinstance(child, ast.Name):
                if child.id not in bound:
                    yield child.id, None, id(child) in called
            elif load and isinstance(child, ast.Attribute):
                value = child.value
                module = isinstance(value, ast.Name) and value.id not in bound
                receiver = aliases.get(value.id, "") if module else ""
                yield child.attr, receiver, id(child) in called
            stack.append((child, bound))


def unreached_definitions(trees, roots):
    """Qualified names of the functions, classes and methods of the modules
    in trees (module name -> syntax tree) that roots, a set of (name,
    receiver, is called) as _read_names yields them, do not reach.

    A reached definition reaches what its body reads: a module-level
    function or class by its bare name or as an attribute of its module, a
    definition nested in a function by its bare name, a method by any
    attribute of its name, and a method that shares its name with a data
    attribute (assigned to an attribute or declared as a class field) only
    by a call.  A reached class reaches its dunder methods.  A definition
    nested in an unreached one is not listed apart from it.
    """
    defs = {}  # qualname -> (node, enclosing definition, kind, names bound around it)
    fields = set()

    def visit(parent, prefix, enclosing, bound):
        for node in ast.iter_child_nodes(parent):
            if _is_def(node):
                name = f"{prefix}.{node.name}"
                kind = ("method" if isinstance(parent, ast.ClassDef)
                        else "nested" if enclosing else "module")
                defs[name] = (node, enclosing, kind, bound)
                # a class body binds nothing for the functions in it
                inner = bound | _bound_names(node) if isinstance(node, ast.FunctionDef) else bound
                visit(node, name, name, inner)
            else:
                if isinstance(parent, ast.ClassDef) and isinstance(node, ast.AnnAssign):
                    fields.add(node.target.id)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    fields.add(node.attr)
                visit(node, prefix, enclosing, bound)

    for module, tree in trees.items():
        visit(tree, module, None, frozenset())
    aliases = {module: module_aliases(tree, trees) for module, tree in trees.items()}
    by_name = {}
    for qualname, (node, _, kind, _) in defs.items():
        property_ = any(getattr(d, "id", None) == "property" for d in node.decorator_list)
        called_only = kind == "method" and node.name in fields and not property_
        by_name.setdefault(node.name, []).append((qualname, kind, called_only))
    reached = set()
    todo = list(roots)
    while todo:
        name, receiver, called = todo.pop()
        for qualname, kind, called_only in by_name.get(name, ()):
            module = qualname.split(".")[0]
            if kind == "method":
                reaches = receiver is not None and (called or not called_only)
            else:
                reaches = receiver is None or kind == "module" and receiver == module
            if qualname in reached or not reaches:
                continue
            reached.add(qualname)
            node, _, _, bound = defs[qualname]
            todo.extend(_read_names(node, aliases[module], bound))
            if isinstance(node, ast.ClassDef):
                todo.extend(
                    (child.name, "", True) for child in node.body
                    if _is_def(child) and child.name.startswith("__")
                )
    return sorted(
        qualname for qualname, (node, enclosing, _, _) in defs.items()
        if qualname not in reached and (enclosing is None or enclosing in reached)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def verdict_roots():
    """What a verdict starts from, as _read_names yields it: the module-level
    code of cli, the console scripts of pyproject.toml (called) and every
    name in the acceptance tests."""
    modules = {path.stem for path in MODULES}
    cli = ast.parse((ROOT / "src" / "affhecke" / "cli.py").read_text(encoding="utf-8"))
    roots = set(_read_names(cli, module_aliases(cli, modules)))
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]")[1].split("\n[")[0]
    roots.update((name, "cli", True) for name in re.findall(r'"affhecke\.cli:(\w+)"', scripts))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    aliases = module_aliases(acceptance, modules)
    for node in ast.walk(acceptance):
        if isinstance(node, (ast.Module, ast.FunctionDef)):
            roots.update(_read_names(node, aliases))
    return roots


def test_every_definition_serves_a_verdict():
    # every function, class and method of the package is reached from a
    # verdict through src/ alone, or is allowlisted with a reason.  A reached
    # definition is named outside its own body, so this also does the work of
    # the former test_no_orphaned_definitions.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES
    }
    roots = verdict_roots()
    assert ("main", "cli", True) in roots
    unreached = unreached_definitions(trees, roots)
    assert not set(unreached) - set(UNREACHED_ALLOWED), (
        f"reached by no verdict: {sorted(set(unreached) - set(UNREACHED_ALLOWED))}"
    )
    assert not set(UNREACHED_ALLOWED) - set(unreached), (
        f"allowlisted but reached or gone: {sorted(set(UNREACHED_ALLOWED) - set(unreached))}"
    )
    # an entry kept for the benchmark is named there
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    named = {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(workloads)}
    stale = [
        qualname for qualname, reason in UNREACHED_ALLOWED.items()
        if "bench/" in reason and qualname.split(".")[-1] not in named
    ]
    assert not stale, f"allowlisted for bench/ but not named in bench/workloads.py: {stale}"


def test_reachability_catches_an_orphan():
    tree = ast.parse(
        "class Piece:\n"
        "    shift: int\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def shift(self):\n"
        "        return shift(self)\n"
        "    def used(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    def inner():\n"
        "        return 0\n"
        "    return Piece\n"
        "def orphan():\n"
        "    return orphan()\n"
        "def shift(p):\n"
        "    return p.shift + p.size\n"
    )
    # a self-call does not reach; the methods size and shift, named like
    # fields, are reached only by calling an attribute of that name
    roots = {("Piece", None, True), ("used", "", True), ("shift", None, True)}
    assert unreached_definitions({"m": tree}, roots) == [
        "m.Piece.shift", "m.Piece.size", "m.helper.inner", "m.orphan",
    ]
    # an attribute reaches a module-level function only on a name bound to
    # its module: the field read p.shift does not reach the function shift,
    # m.shift does, and neither reaches the method
    unreached = ["m.Piece.shift", "m.Piece.size", "m.Piece.used", "m.helper", "m.orphan"]
    roots = {("Piece", None, True), ("shift", "", False)}
    assert unreached_definitions({"m": tree}, roots) == sorted(unreached + ["m.shift"])
    roots = {("Piece", None, True), ("shift", "m", False)}
    assert unreached_definitions({"m": tree}, roots) == unreached
    # read from another module: the local helper shadows the function
    # helper, args.orphan() has no module receiver, and m.shift reaches shift
    reader = ast.parse(
        "from . import m\n"
        "def run(args):\n"
        "    helper = args.helper()\n"
        "    return helper(args.orphan(), m.shift)\n"
    )
    assert unreached_definitions({"m": tree, "r": reader}, {("run", None, True)}) == [
        "m.Piece", "m.helper", "m.orphan",
    ]


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


# (class, attribute) -> why that arithmetic may lack an attribute read off
# an arithmetic somewhere in the package
PROTOCOL_EXEMPT = {
    **{
        ("MatrixArithmetic", name): "complexes over Q[d] are built in memory only"
        for name in (
            "name", "encode", "decode_for_load", "encode_label", "decode_label",
        )
    },
    ("SignArithmetic", "n"): "sign complexes carry no strand count",
}


def arithmetic_reads(tree):
    """The attributes read off an arithmetic: ar.X, arithmetic.X and
    <expr>.arithmetic.X."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in ("ar", "arithmetic")) or (
                isinstance(owner, ast.Attribute) and owner.attr == "arithmetic"
            ):
                out.add(node.attr)
    return out


def test_every_arithmetic_supplies_the_protocol():
    # what the package reads off an arithmetic, each of the three supplies:
    # a read that only one backend answers fails on the others' paths,
    # including paths no verdict runs yet
    probe = "ar.one\narithmetic.two\np.arithmetic.three\nself.src.arithmetic.four\n"
    assert arithmetic_reads(ast.parse(probe)) == {"one", "two", "three", "four"}
    reads = set().union(*(arithmetic_reads(ast.parse(p.read_text("utf-8"))) for p in MODULES))
    missing = [
        f"{type(ar).__name__}.{name}"
        for ar in (MatrixArithmetic(0), SignArithmetic(), BimoduleArithmetic(2))
        for name in sorted(reads)
        if not hasattr(ar, name) and (type(ar).__name__, name) not in PROTOCOL_EXEMPT
    ]
    assert not missing, f"read off an arithmetic but not defined: {missing}"


# the packed row format {column << S | packed monomial: coefficient} of a
# polymat.Matrix is known to these modules alone; every other module goes
# through polymat's kernels
ROW_FORMAT_OWNERS = {"polymat.py", "rings.py"}
ROW_FORMAT_NAMES = {"_packed", "packed_bits", "delta_zero_terms"}


def row_format_names(tree):
    """The row-format names that a module names: as a name, as an attribute
    or in an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names & ROW_FORMAT_NAMES


def test_only_polymat_and_rings_know_the_row_format():
    # the shapes in which bimod once named the format: an import, a private
    # constructor and a row filter
    probe = "from .rings import packed_bits\nMatrix._packed(n, w, rows)\nmap(delta_zero_terms, rows)\n"
    assert row_format_names(ast.parse(probe)) == {"packed_bits", "_packed", "delta_zero_terms"}
    found = {
        path.name: sorted(names)
        for path in MODULES
        if path.name not in ROW_FORMAT_OWNERS
        and (names := row_format_names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not found, f"modules that name the packed row format: {found}"
