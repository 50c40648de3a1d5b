"""Each decision of the package has one owner.

``src/roweis`` is parsed with ``ast``, as in ``test_one_core.py``:

* only ``datasets`` imports ``csv``, so ``datasets.write_csv`` is the one
  CSV writer and the CSV session the one reader;
* only ``experiments`` imports ``evaluate``, so ``experiments.grid_scores``
  is the one scorer of a grid, for the sweep and the table alike;
* ``kernels.resolve_label_kernel`` is referenced only by the eigen core,
  ``rda._solve_grid``, which resolves each requested label kernel once per
  grid, by the kernel-trick fits' ``kernel_rda._fit_trick``, and by the
  table's ``experiments._split_rmse``, which resolves one bandwidth per
  split for its two grids;
* ``rda.RoweisConfig`` alone checks a fit's settings: the second copies
  (``persist._fraction`` and ``persist._flag``) and the CLI's own CSV
  writer (``cli._write_rows``) are gone;
* ``rda.RoweisConfig`` alone holds them: no other class declares an
  ``r1``, ``r2`` or ``label_kernel`` field (a model holds a ``config``),
  except the table's ``experiments.BenchCell``, whose ``r1`` names a row of
  fits over splits that each resolve their own label kernel;
* ``kernels.PARAMETERS`` alone says which parameters a kernel family reads:
  ``KernelSpec.__post_init__`` resets the others from it and
  ``KernelSpec.to_dict`` writes the family's from it;
* ``cli._sha256`` alone imports ``hashlib``, and only as the last fallback
  after CPython's built-in SHA-256 modules, because ``hashlib`` maps OpenSSL
  (``test_manifest.py``).
"""

import ast
from pathlib import Path

from test_dead_code import PACKAGE, package_imports, references
from test_one_core import undefined

IMPORTERS = {"csv": {"datasets"}, "evaluate": {"experiments"}}
RESOLVE = ("kernels", "resolve_label_kernel")
RESOLVERS = {("rda", "_solve_grid"), ("kernel_rda", "_fit_trick"), ("experiments", "_split_rmse")}
GONE = {("persist", "_fraction"), ("persist", "_flag"), ("cli", "_write_rows")}
SETTINGS = {"r1", "r2", "label_kernel"}
SETTINGS_HOLDERS = {("rda", "RoweisConfig"), ("experiments", "BenchCell")}
# CPython's built-in SHA-256: _sha2 on 3.12+, _sha256 on 3.10-3.11.
BUILTIN_SHA256 = ["_sha2", "_sha256"]


def imports(node, name: str, modules: set) -> bool:
    """Whether ``node`` imports the module ``name``: the standard library's
    (``import csv``, ``from csv import ...``) or, for one of the package's
    ``modules``, by a relative import."""
    if name in modules:
        return isinstance(node, ast.ImportFrom) and node.level == 1 and (
            node.module == name or (node.module is None and name in {a.name for a in node.names}))
    return (isinstance(node, ast.Import) and name in {a.name.split(".")[0] for a in node.names}) or (
        isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == name)


def importers(package: Path, name: str) -> set:
    """The modules of ``package`` that import the module ``name`` (see :func:`imports`)."""
    modules = {p.stem for p in package.glob("*.py")}
    out = set()
    for path in sorted(package.glob("*.py")):
        if any(imports(node, name, modules) for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))):
            out.add(path.stem)
    return out


def test_a_second_importer_is_caught(tmp_path):
    (tmp_path / "evaluate.py").write_text("def score():\n    return 0\n")
    (tmp_path / "cli.py").write_text("def sweep():\n    import csv\n    from . import evaluate\n")
    (tmp_path / "experiments.py").write_text("from csv import writer\nfrom .evaluate import score\n")
    (tmp_path / "datasets.py").write_text("import csv.writer as w\nfrom .experiments import evaluate\n")
    assert importers(tmp_path, "csv") == {"cli", "experiments", "datasets"}
    assert importers(tmp_path, "evaluate") == {"cli", "experiments"}


def test_csv_and_evaluate_have_one_importer_each():
    assert {name: importers(PACKAGE, name) for name in IMPORTERS} == IMPORTERS


def referrers(package: Path, target: tuple) -> set:
    """The (module, owner) pairs referring to ``target``, a (module, name)
    pair; owner is the module-level function or class a reference sits in."""
    modules = {p.stem for p in package.glob("*.py")}
    out = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module_alias, name_alias = package_imports(tree, modules)
        for stmt in tree.body:
            if target in references(stmt, path.stem, module_alias, name_alias):
                out.add((path.stem, getattr(stmt, "name", None)))
    return out


def test_a_second_resolver_is_caught(tmp_path):
    (tmp_path / "kernels.py").write_text("def resolve_label_kernel(spec, labels):\n    return spec\n")
    (tmp_path / "cli.py").write_text("from . import kernels\n\n\ndef sweep(y):\n"
                                     "    return kernels.resolve_label_kernel(None, y)\n")
    assert referrers(tmp_path, RESOLVE) == {("cli", "sweep")}


def test_label_kernels_are_resolved_only_by_the_fits_and_the_table():
    assert undefined(PACKAGE, RESOLVERS | {RESOLVE}) == set()
    assert referrers(PACKAGE, RESOLVE) == RESOLVERS


def test_the_second_copies_are_gone():
    assert undefined(PACKAGE, GONE) == GONE


def field_holders(package: Path, names: set) -> set:
    """The (module, class) pairs of ``package`` whose class declares a field
    named in ``names``: an annotated name in its body, or an attribute of
    ``self`` assigned in one of its methods."""
    out = set()
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            declared = {stmt.target.id for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
            declared |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
                         and node.value.id == "self"}
            if declared & names:
                out.add((path.stem, cls.name))
    return out


def test_a_second_settings_holder_is_caught(tmp_path):
    (tmp_path / "rda.py").write_text("class RoweisConfig:\n    r1: float\n\n\nclass Model:\n    config: object\n")
    (tmp_path / "kernel_rda.py").write_text("class KernelModel:\n    label_kernel: object = None\n")
    (tmp_path / "scatter.py").write_text("class Stats:\n    def __init__(self):\n        self.r2 = 0.0\n")
    assert field_holders(tmp_path, SETTINGS) == {("rda", "RoweisConfig"), ("kernel_rda", "KernelModel"),
                                                 ("scatter", "Stats")}


def test_only_roweis_config_holds_a_fits_settings():
    assert field_holders(PACKAGE, SETTINGS) == SETTINGS_HOLDERS


def test_one_table_says_which_parameters_a_kernel_family_reads():
    tree = ast.parse((PACKAGE / "kernels.py").read_text())
    spec = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "KernelSpec")
    readers = {method.name for method in spec.body if isinstance(method, ast.FunctionDef)
               and any(isinstance(node, ast.Name) and node.id == "PARAMETERS" for node in ast.walk(method))}
    assert readers == {"__post_init__", "to_dict"}


def fallbacks(node, name: str, tried: list):
    """For each import of the module ``name`` under ``node``, the modules
    that the ``try`` blocks it is a fallback of import first, outermost first."""
    if imports(node, name, set()):
        yield tried
    elif isinstance(node, ast.Try):
        first = [alias.name if isinstance(stmt, ast.Import) else stmt.module
                 for stmt in node.body if isinstance(stmt, (ast.Import, ast.ImportFrom)) for alias in stmt.names]
        for child in node.body:
            yield from fallbacks(child, name, tried)
        for child in (child for handler in node.handlers for child in handler.body):
            yield from fallbacks(child, name, tried + first)
        for child in node.orelse + node.finalbody:
            yield from fallbacks(child, name, tried)
    else:
        for child in ast.iter_child_nodes(node):
            yield from fallbacks(child, name, tried)


def import_sites(package: Path, name: str) -> list:
    """(module, owner, tried) for each import of the module ``name`` in
    ``package``: owner is the module-level function or class it sits in,
    tried what :func:`fallbacks` says."""
    out = []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            out.extend((path.stem, getattr(stmt, "name", None), tried) for tried in fallbacks(stmt, name, []))
    return out


def test_an_early_hashlib_import_is_caught(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import hashlib\n\n\ndef digest():\n    try:\n        from _sha256 import sha256\n"
        "    except ImportError:\n        from hashlib import sha256\n    else:\n        import hashlib.x\n")
    (tmp_path / "persist.py").write_text("def save():\n    try:\n        import _sha2\n    finally:\n"
                                         "        import hashlib\n")
    assert import_sites(tmp_path, "hashlib") == [("cli", None, []), ("cli", "digest", ["_sha256"]),
                                                 ("cli", "digest", []), ("persist", "save", [])]


def test_hashlib_is_only_the_last_fallback_of_the_manifest_digest():
    assert import_sites(PACKAGE, "hashlib") == [("cli", "_sha256", BUILTIN_SHA256)]
