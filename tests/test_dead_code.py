"""No module-level function of the package is dead.

``src/roweis`` is parsed with ``ast``. Every module-level function must be
referenced from package code outside its own body; a public one (a name
without a leading underscore) may instead be one of the objects
``roweis/__init__.py`` exports in ``roweis.__all__``. A reference counts
only when it names the function's own module: a bare name inside that
module, ``module.name`` on a module imported with ``from . import
module``, or a name brought in with ``from .module import name``. So a
dead ``project`` is not kept alive by another module's ``project``, nor a
dead ``mean`` by ``x.mean()``. A builder whose last caller in the package
went belongs in ``tests/oracle.py``, where the tests that still need it as
a reference can import it.
"""

import ast
import inspect
from pathlib import Path

import roweis

PACKAGE = Path(roweis.__file__).resolve().parent


def package_imports(tree, modules: set) -> tuple[dict, dict]:
    """(module aliases, function aliases) a module's relative imports bind:
    local name -> package module, and local name -> (module, name)."""
    module_alias, name_alias = {}, {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is None and alias.name in modules:
                module_alias[local] = alias.name
            elif node.module in modules:
                name_alias[local] = (node.module, alias.name)
    return module_alias, name_alias


def references(node, module: str, module_alias: dict, name_alias: dict) -> set:
    """The (module, name) pairs a subtree of ``module`` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(name_alias.get(sub.id, (module, sub.id)))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in module_alias:
            out.add((module_alias[sub.value.id], sub.attr))
    return out


def scan(package: Path) -> tuple[list, set]:
    """(module-level functions, referenced functions), each as (module, name).

    ``__init__.py`` is left out: what it imports is the export list, which
    :func:`exported` reads from the package itself. A function's references
    to itself inside its own body do not count."""
    paths = sorted(p for p in package.glob("*.py") if p.stem != "__init__")
    modules = {p.stem for p in paths}
    defined, referenced = [], set()
    for path in paths:
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        module_alias, name_alias = package_imports(tree, modules)
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (module, stmt.name)
                defined.append(owner)
            referenced |= references(stmt, module, module_alias, name_alias) - {owner}
    return defined, referenced


def exported() -> set:
    """The functions ``roweis.__all__`` exports, as (module, name) of their definition."""
    out = set()
    for name in roweis.__all__:
        obj = getattr(roweis, name)
        if inspect.isfunction(obj) and obj.__module__.startswith("roweis."):
            out.add((obj.__module__.removeprefix("roweis."), obj.__name__))
    return out


def dead_functions(package: Path, exports: set) -> list:
    defined, referenced = scan(package)
    return [f"{module}.{name}" for module, name in defined if (module, name) not in referenced | exports]


def test_the_scan_sees_the_package():
    defined, referenced = scan(PACKAGE)
    assert ("rda", "objective") in defined and ("scatter", "within_scatter") in defined
    assert ("scatter", "within_scatter") in referenced
    assert {("rda", "project"), ("kernel_rda", "project"), ("rda", "fit")} <= exported()


def test_references_are_qualified_by_module(tmp_path):
    (tmp_path / "a.py").write_text(
        "def project(x):\n    return project(x)\n\n\n"
        "def mean(x):\n    return x\n\n\n"
        "def used(x):\n    return x\n\n\n"
        "def imported(x):\n    return x\n\n\n"
        "def _private(x):\n    return _private(x)\n\n\n"
        "def _helper(x):\n    return x\n\n\n"
        "def _decorator(fn):\n    return fn\n\n\n"
        "@_decorator\ndef decorated(x):\n    return _helper(x)\n"
    )
    (tmp_path / "b.py").write_text(
        "import numpy as np\n\nfrom . import a\nfrom .a import imported as renamed\n\n\n"
        "def project(x):\n    return np.mean(x) + a.used(x) + renamed(x)\n"
    )
    # a.project and a._private call only themselves, a.mean shares its name
    # with np.mean, b.project would be kept alive only by being exported,
    # and a decorator counts as a reference.
    assert dead_functions(tmp_path, set()) == ["a.project", "a.mean", "a._private", "a.decorated", "b.project"]
    assert dead_functions(tmp_path, {("b", "project"), ("a", "decorated")}) == ["a.project", "a.mean", "a._private"]


def test_every_function_has_a_caller_or_is_exported():
    assert dead_functions(PACKAGE, exported()) == []
