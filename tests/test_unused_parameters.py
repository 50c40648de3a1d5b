"""No defaulted parameter of a package function goes unset.

``src/roweis`` is parsed with ``ast``. For every module-level function with
defaulted parameters, each call in the package that names it, qualified by
module as in ``test_dead_code.py``, is read: a call sets a parameter by
keyword, by position, or through ``*`` or ``**`` unpacking (``_solve_grid``
passes ``**term`` to ``objective``). A defaulted parameter that no call sets
is a value no caller chooses: fold it into the function. A function named
other than as the callee of a call (handed to another function, wrapped by
``functools.partial``) may be called with anything, so all its parameters
count as set, as they do when a local name shadows the function's. The
functions ``roweis.__all__`` exports and ``cli.main`` are exempt: their
callers live outside the package.
"""

import ast
from pathlib import Path

from test_dead_code import PACKAGE, exported, package_imports

EXEMPT = {("cli", "main")}


def _defaulted(fn: ast.FunctionDef) -> dict:
    """{name: position} of a function's defaulted parameters; keyword-only
    ones have no position (None)."""
    positional = fn.args.posonlyargs + fn.args.args
    out = {arg.arg: i for i, arg in enumerate(positional) if i >= len(positional) - len(fn.args.defaults)}
    out.update({arg.arg: None for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default})
    return out


def _sets(call: ast.Call) -> tuple:
    """(keywords, positional count, unpacks) of a call: the names it passes
    by keyword, how many arguments it passes by position, and whether it
    unpacks ``*`` or ``**``."""
    keywords = {k.arg for k in call.keywords if k.arg is not None}
    unpacks = any(k.arg is None for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args)
    return keywords, len(call.args), unpacks


def unset_parameters(package: Path, exports: set) -> list:
    """``module.function(parameter)`` for every defaulted parameter no call sets."""
    paths = sorted(p for p in package.glob("*.py") if p.stem != "__init__")
    modules = {p.stem for p in paths}
    functions, calls, escaped = {}, {}, set()
    for path in paths:
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        module_alias, name_alias = package_imports(tree, modules)

        def target(node):
            if isinstance(node, ast.Name):
                return name_alias.get(node.id, (module, node.id))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in module_alias:
                return module_alias[node.value.id], node.attr
            return None

        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                functions[(module, stmt.name)] = _defaulted(stmt)
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and target(node.func):
                calls.setdefault(target(node.func), []).append(_sets(node))
                callees.add(id(node.func))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees and target(node):
                escaped.add(target(node))
    out = []
    for owner, params in functions.items():
        if owner in exports | EXEMPT | escaped:
            continue
        for name, position in params.items():
            if not any(name in keywords or unpacks or (position is not None and position < count)
                       for keywords, count, unpacks in calls.get(owner, [])):
                out.append(f"{owner[0]}.{owner[1]}({name})")
    return out


def test_unset_parameters_are_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def solve(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
        "def blend(x, factor=None, gram=None):\n    return x\n\n\n"
        "def spread(x, y=0):\n    return x\n\n\n"
        "def passed(x, y=0):\n    return x\n\n\n"
        "def public(x, y=0):\n    return x\n\n\n"
        "def main(argv=None):\n    return solve(1, 2, d=5) + blend(1, **{'gram': 2}) + spread(*[1, 2])\n"
    )
    (tmp_path / "b.py").write_text(
        "from functools import partial\n\nfrom . import a\nfrom .a import solve as run\n\n\n"
        "def use(x):\n    return run(x, c=x) + a.solve(x)\n\n\n"
        "LATER = partial(a.passed, y=1)\n"
    )
    # solve's b is set by position, c by keyword in another module under a
    # new name, d by keyword; blend's two through **, spread's y through *;
    # passed escapes through partial, and public is exported.
    assert unset_parameters(tmp_path, {("a", "public")}) == ["a.solve(e)", "a.main(argv)"]


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert unset_parameters(PACKAGE, exported()) == []
